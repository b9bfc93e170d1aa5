#include "util/mem_budget.h"

namespace pdtstore {

namespace {
thread_local std::shared_ptr<MemoryBudget> g_budget;
}  // namespace

std::shared_ptr<MemoryBudget> CurrentBudget() { return g_budget; }

ScopedBudget::ScopedBudget(std::shared_ptr<MemoryBudget> budget)
    : prev_(std::move(g_budget)) {
  g_budget = std::move(budget);
}

ScopedBudget::~ScopedBudget() { g_budget = std::move(prev_); }

}  // namespace pdtstore
