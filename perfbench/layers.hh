/**
 * @file
 * Layer probes for the end-to-end benchmark. The simulator is wired
 * as trace generator -> TraceCpu (+ cache hierarchy) -> MemBackend;
 * these wrappers sit on the two interfaces the core calls and record
 * what crosses them, without touching the library:
 *  - LayerGenerator wraps the TraceGenerator handed to TraceCpu::run
 *    and counts and times every fillBatch;
 *  - LayerBackend wraps the MemBackend (OramController or
 *    DramBackend), records each demand's simulated latency (issue
 *    cycle to returned completion cycle) and times every call.
 * Both forward every call unchanged, so a run wired through them
 * produces the same simulated results as System::run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/backend.hh"
#include "trace/generator.hh"

namespace perfbench
{

/** Monotonic host clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Log-linear histogram of host nanoseconds: exact below 128 ns, then
 * 64 equal sub-buckets per power of two (at most 1.6% wide). Its size
 * does not grow with the number of calls, so the probes' records do
 * not show in the process's peak resident set.
 */
class NsHistogram
{
  public:
    static constexpr int kSubBits = 6;
    /** Covers 0 .. 2^32 - 1 ns; longer calls land in the last bucket. */
    static constexpr std::size_t kBuckets = (32 - kSubBits + 2)
                                            << kSubBits;

    void add(std::uint64_t ns);
    void merge(const NsHistogram &other);
    /** The q-quantile, interpolated within its bucket; 0 if empty. */
    double quantile(double q) const;

  private:
    /** Allocated on the first add. */
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** What one cell's traced run observed at the layer boundaries. */
struct LayerSpans
{
    // trace: TraceGenerator::fillBatch
    std::uint64_t fillNs = 0;
    std::uint64_t records = 0;
    /** Sum of the records' compute gaps (simulated cycles). */
    std::uint64_t computeCycles = 0;

    // backend: MemBackend calls
    std::uint64_t demands = 0;
    std::uint64_t demandNs = 0;
    /** Host ns of each demandAccess. */
    NsHistogram demandNsHist;
    std::uint64_t writebackBlocks = 0;
    std::uint64_t writebackNs = 0;
    std::uint64_t touches = 0;
    std::uint64_t touchNs = 0;
    std::uint64_t finalizeNs = 0;

    /** Sum over demands of (completion - issue), simulated cycles. */
    std::uint64_t stallCycles = 0;
    /** Simulated demand latency -> number of demands. */
    std::unordered_map<std::uint64_t, std::uint64_t> latencyCounts;

    /** Host ns spent inside the backend, all calls. */
    std::uint64_t backendNs() const
    {
        return demandNs + writebackNs + touchNs + finalizeNs;
    }
};

/** Forwarding TraceGenerator that counts and times fillBatch. */
class LayerGenerator : public proram::TraceGenerator
{
  public:
    LayerGenerator(proram::TraceGenerator &inner, LayerSpans &spans)
        : inner_(inner), spans_(spans)
    {
    }

    bool next(proram::TraceRecord &rec) override;
    std::size_t fillBatch(proram::TraceRecord *out,
                          std::size_t max) override;
    void reset() override { inner_.reset(); }

  private:
    proram::TraceGenerator &inner_;
    LayerSpans &spans_;
};

/** Forwarding MemBackend that records latencies and times calls. */
class LayerBackend : public proram::MemBackend
{
  public:
    LayerBackend(proram::MemBackend &inner, LayerSpans &spans)
        : inner_(inner), spans_(spans)
    {
    }

    proram::Cycles demandAccess(proram::Cycles now,
                                proram::BlockId block,
                                proram::OpType op) override;
    void writebackAccess(proram::Cycles now,
                         proram::BlockId block) override;
    void writebackBatch(proram::Cycles now, const proram::BlockId *blocks,
                        std::size_t n) override;
    void onDemandTouch(proram::Cycles now, proram::BlockId block) override;
    void finalize(proram::Cycles end) override;
    std::uint64_t memAccessCount() const override
    {
        return inner_.memAccessCount();
    }

  private:
    proram::MemBackend &inner_;
    LayerSpans &spans_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
