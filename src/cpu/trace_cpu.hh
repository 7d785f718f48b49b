/**
 * @file
 * Trace-driven in-order core (Table 1: 1 GHz, in-order, blocking
 * loads). Consumes TraceRecords batch-wise: records are decoded into
 * a fixed-size RequestBatch (one fillBatch call per batch instead of
 * one virtual next() per record) and retired in a tight loop whose
 * run counters live in locals, flushed once per batch. Retirement
 * order and per-record semantics are unchanged, so results are
 * bit-identical for every batch size. LLC misses stall the core on
 * the memory backend; dirty LLC victims become backend write-backs
 * that do not stall the core but occupy the memory controller.
 */

#ifndef PRORAM_CPU_TRACE_CPU_HH
#define PRORAM_CPU_TRACE_CPU_HH

#include <cstdint>

#include "cpu/request_batch.hh"
#include "mem/backend.hh"
#include "mem/cache_hierarchy.hh"
#include "trace/generator.hh"

namespace proram
{

/** Per-run results (inputs to every figure's metric). */
struct CpuRunResult
{
    Cycles cycles{0};
    std::uint64_t references = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t writebacks = 0;
};

/** The core. */
class TraceCpu
{
  public:
    /** @param batch_size records decoded per fillBatch call, clamped
     *  to [1, RequestBatch::kCapacity]; 0 = the default,
     *  RequestBatch::kDefaultSize. */
    TraceCpu(CacheHierarchy &hierarchy, MemBackend &backend,
             std::uint32_t line_bytes, std::size_t batch_size = 0);

    /**
     * Run the whole trace; at the end, drain dirty LLC lines through
     * the backend (so schemes pay for the write traffic they incur)
     * and let the backend settle periodic dummies.
     */
    CpuRunResult run(TraceGenerator &gen);

    std::size_t batchSize() const { return batchSize_; }

  private:
    CacheHierarchy &hierarchy_;
    MemBackend &backend_;
    std::uint32_t lineShift_;
    std::size_t batchSize_;
};

} // namespace proram

#endif // PRORAM_CPU_TRACE_CPU_HH
