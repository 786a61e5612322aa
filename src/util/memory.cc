#include "util/memory.h"

namespace mbe::util {

namespace {

/// The calling thread's bound budget (nullptr = process default). A plain
/// thread_local pointer: bindings are strictly scoped, so no cleanup
/// machinery is needed beyond ScopedBudgetBinding's destructor.
thread_local MemoryBudget* t_bound_budget = nullptr;

}  // namespace

MemoryBudget& ProcessMemoryBudget() {
  static MemoryBudget* budget = new MemoryBudget();
  return *budget;
}

MemoryBudget& CurrentMemoryBudget() {
  MemoryBudget* bound = t_bound_budget;
  return bound != nullptr ? *bound : ProcessMemoryBudget();
}

ScopedBudgetBinding::ScopedBudgetBinding(MemoryBudget* budget)
    : previous_(t_bound_budget) {
  t_bound_budget = budget;
}

ScopedBudgetBinding::~ScopedBudgetBinding() { t_bound_budget = previous_; }

}  // namespace mbe::util
