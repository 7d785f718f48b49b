#include "layers.hh"

#include <algorithm>
#include <bit>
#include <utility>

namespace perfbench
{

namespace
{

constexpr int kSubBits = NsHistogram::kSubBits;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

std::size_t
bucketOf(std::uint64_t ns)
{
    ns = std::min<std::uint64_t>(ns, UINT32_MAX);
    if (ns < 2 * kSub)
        return static_cast<std::size_t>(ns);
    const int shift = static_cast<int>(std::bit_width(ns)) - 1 - kSubBits;
    return static_cast<std::size_t>(shift) * kSub + (ns >> shift);
}

/** [low, low + width) of bucket @p b. */
std::pair<double, double>
boundsOf(std::size_t b)
{
    if (b < 2 * kSub)
        return {static_cast<double>(b), 1.0};
    const std::uint64_t shift = b / kSub - 1;
    const std::uint64_t sub = b - shift * kSub;
    return {static_cast<double>(sub << shift),
            static_cast<double>(std::uint64_t{1} << shift)};
}

} // namespace

void
NsHistogram::add(std::uint64_t ns)
{
    if (counts_.empty())
        counts_.assign(kBuckets, 0);
    ++counts_[bucketOf(ns)];
    ++total_;
}

void
NsHistogram::merge(const NsHistogram &other)
{
    if (other.total_ == 0)
        return;
    if (counts_.empty())
        counts_.assign(kBuckets, 0);
    for (std::size_t b = 0; b < kBuckets; ++b)
        counts_[b] += other.counts_[b];
    total_ += other.total_;
}

double
NsHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    // 0-based rank, spread evenly over the samples of its bucket.
    const double rank = q * static_cast<double>(total_ - 1);
    double before = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const auto n = static_cast<double>(counts_[b]);
        if (n > 0 && rank < before + n) {
            const auto [low, width] = boundsOf(b);
            return low + width * (rank - before + 0.5) / n;
        }
        before += n;
    }
    return 0.0;
}

using proram::BlockId;
using proram::Cycles;
using proram::OpType;
using proram::TraceRecord;

bool
LayerGenerator::next(TraceRecord &rec)
{
    return fillBatch(&rec, 1) == 1;
}

std::size_t
LayerGenerator::fillBatch(TraceRecord *out, std::size_t max)
{
    const std::uint64_t t0 = nowNs();
    const std::size_t n = inner_.fillBatch(out, max);
    spans_.fillNs += nowNs() - t0;
    spans_.records += n;
    for (std::size_t i = 0; i < n; ++i)
        spans_.computeCycles += out[i].computeCycles;
    return n;
}

Cycles
LayerBackend::demandAccess(Cycles now, BlockId block, OpType op)
{
    const std::uint64_t t0 = nowNs();
    const Cycles done = inner_.demandAccess(now, block, op);
    const std::uint64_t ns = nowNs() - t0;
    spans_.demandNs += ns;
    spans_.demandNsHist.add(ns);
    const std::uint64_t latency = done.value() - now.value();
    ++spans_.demands;
    spans_.stallCycles += latency;
    ++spans_.latencyCounts[latency];
    return done;
}

void
LayerBackend::writebackAccess(Cycles now, BlockId block)
{
    const std::uint64_t t0 = nowNs();
    inner_.writebackAccess(now, block);
    spans_.writebackNs += nowNs() - t0;
    ++spans_.writebackBlocks;
}

void
LayerBackend::writebackBatch(Cycles now, const BlockId *blocks,
                             std::size_t n)
{
    const std::uint64_t t0 = nowNs();
    inner_.writebackBatch(now, blocks, n);
    spans_.writebackNs += nowNs() - t0;
    spans_.writebackBlocks += n;
}

void
LayerBackend::onDemandTouch(Cycles now, BlockId block)
{
    const std::uint64_t t0 = nowNs();
    inner_.onDemandTouch(now, block);
    spans_.touchNs += nowNs() - t0;
    ++spans_.touches;
}

void
LayerBackend::finalize(Cycles end)
{
    const std::uint64_t t0 = nowNs();
    inner_.finalize(end);
    spans_.finalizeNs += nowNs() - t0;
}

} // namespace perfbench
