// service-header-test fixture: no test under tests/ includes this
// header.  EXPECT-TU: service-header-test
#pragma once

inline int queue_depth() { return 0; }
