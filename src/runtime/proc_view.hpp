#include "machine/proc_view.hpp"  // kept only for the benchmark harness (benchmark/)
