#pragma once

// Clean service header: tests/test_service.cpp includes it.
inline int worker_count() { return 1; }
