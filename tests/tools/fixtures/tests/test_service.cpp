// The one fixture test: it exercises lqcd/service/tested.h only.
#include "lqcd/service/tested.h"

int main() { return worker_count() == 1 ? 0 : 1; }
