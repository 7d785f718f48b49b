#include "cpu/trace_cpu.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

TraceCpu::TraceCpu(CacheHierarchy &hierarchy, MemBackend &backend,
                   std::uint32_t line_bytes, std::size_t batch_size)
    : hierarchy_(hierarchy), backend_(backend),
      lineShift_(log2Floor(line_bytes)),
      batchSize_(batch_size == 0
                     ? RequestBatch::kDefaultSize
                     : std::min(batch_size, RequestBatch::kCapacity))
{
    fatal_if(!isPowerOf2(line_bytes), "line size must be a power of two");
}

CpuRunResult
TraceCpu::run(TraceGenerator &gen)
{
    CpuRunResult res;
    Cycles cycle{0};
    RequestBatch batch;

    for (;;) {
        batch.size = gen.fillBatch(batch.records, batchSize_);
        if (batch.size == 0)
            break;
        PRORAM_TRACE_SCOPE_ARG("cpu", "batch", "size", batch.size);

        // Per-batch counters: retire the whole batch against locals,
        // flush once. Retirement itself is record-at-a-time (the
        // blocking core serializes misses anyway); the amortization
        // is in decode and accounting.
        std::uint64_t l1_hits = 0;
        std::uint64_t l2_hits = 0;
        std::uint64_t llc_misses = 0;
        std::uint64_t writebacks = 0;

        for (std::size_t r = 0; r < batch.size; ++r) {
            const TraceRecord &rec = batch.records[r];
            cycle += Cycles{rec.computeCycles};

            const BlockId block{rec.addr >> lineShift_};
            const HitLevel level = hierarchy_.lookup(block, rec.op);

            switch (level) {
              case HitLevel::L1:
                cycle += hierarchy_.hitLatency(HitLevel::L1);
                ++l1_hits;
                break;

              case HitLevel::L2:
                cycle += hierarchy_.hitLatency(HitLevel::L2);
                ++l2_hits;
                backend_.onDemandTouch(cycle, block);
                break;

              case HitLevel::Miss: {
                ++llc_misses;
                PRORAM_TRACE_EVENT("cpu", "llcMiss", "block", block);
                const Cycles issue =
                    cycle + hierarchy_.hitLatency(HitLevel::L2);
                cycle = backend_.demandAccess(issue, block, rec.op);
                backend_.onDemandTouch(cycle, block);
                if (const auto v = hierarchy_.fillFromMemory(
                        block, rec.op == OpType::Write)) {
                    backend_.writebackAccess(cycle, v->block);
                    ++writebacks;
                }
                break;
              }
            }
        }

        res.references += batch.size;
        res.l1Hits += l1_hits;
        res.l2Hits += l2_hits;
        res.llcMisses += llc_misses;
        res.writebacks += writebacks;
    }

    // Drain: dirty lines must eventually reach memory; charging them
    // keeps the energy metric honest across schemes. The drain list
    // goes down as one batch (the backend devirtualizes the loop).
    const std::vector<BlockId> dirty = hierarchy_.drainDirty();
    backend_.writebackBatch(cycle, dirty.data(), dirty.size());
    res.writebacks += dirty.size();
    backend_.finalize(cycle);

    res.cycles = cycle;
    return res;
}

} // namespace proram
