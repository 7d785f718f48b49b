#include "sim/secure_memory.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace proram
{

SecureMemory::SecureMemory(const SystemConfig &cfg) : cfg_(cfg)
{
    fatal_if(cfg.scheme == MemScheme::Dram ||
                 cfg.scheme == MemScheme::DramPrefetch,
             "SecureMemory requires an ORAM scheme");
    cfg_.validate();
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);
    controller_ = std::make_unique<OramController>(
        cfg_.oram, cfg_.controller, *hierarchy_);
    if (cfg_.scheme == MemScheme::OramStatic)
        controller_->configureStatic(cfg_.staticSbSize);
    else if (cfg_.scheme == MemScheme::OramDynamic)
        controller_->configureDynamic(cfg_.dynamic);
    else
        controller_->configureBaseline();
    lineShift_ = log2Floor(cfg_.oram.blockBytes);
}

SecureMemory::~SecureMemory() = default;

BlockId
SecureMemory::blockOf(Addr addr) const
{
    const BlockId block{addr >> lineShift_};
    fatal_if(block.value() >= cfg_.oram.numDataBlocks,
             "address ", addr, " beyond ORAM capacity");
    return block;
}

std::uint64_t
SecureMemory::capacityBytes() const
{
    return cfg_.oram.numDataBlocks *
           static_cast<std::uint64_t>(cfg_.oram.blockBytes);
}

void
SecureMemory::flushCounts(const AccessCounts &counts)
{
    references_ += counts.references;
    llcMisses_ += counts.llcMisses;
    writebacks_ += counts.writebacks;
}

std::uint64_t
SecureMemory::access(Addr addr, OpType op, std::uint64_t value)
{
    AccessCounts counts;
    const std::uint64_t result = accessOne(addr, op, value, counts);
    flushCounts(counts);
    return result;
}

std::uint64_t
SecureMemory::accessOne(Addr addr, OpType op, std::uint64_t value,
                        AccessCounts &counts)
{
    const BlockId block = blockOf(addr);
    ++counts.references;

    const HitLevel level = hierarchy_->lookup(block, op);
    if (level != HitLevel::Miss) {
        cycle_ += hierarchy_->hitLatency(level);
        if (level == HitLevel::L2)
            controller_->onDemandTouch(cycle_, block);
        if (op == OpType::Write)
            shadow_[block] = value;
        auto it = shadow_.find(block);
        return it == shadow_.end() ? 0 : it->second;
    }

    // LLC miss: a full ORAM access.
    ++counts.llcMisses;
    std::uint64_t oram_value = 0;
    const Cycles issue = cycle_ + hierarchy_->hitLatency(HitLevel::L2);
    cycle_ = controller_->dataAccess(
        issue, block, op, value, op == OpType::Read ? &oram_value : nullptr);
    controller_->onDemandTouch(cycle_, block);

    if (op == OpType::Read) {
        // Cross-check the ORAM's functional payload against the
        // shadow copy: any divergence is a simulator bug.
        auto it = shadow_.find(block);
        const std::uint64_t expected =
            it == shadow_.end() ? 0 : it->second;
        panic_if(oram_value != expected, "ORAM returned ", oram_value,
                 " but block ", block, " should hold ", expected);
    } else {
        shadow_[block] = value;
    }

    if (const auto v =
            hierarchy_->fillFromMemory(block, op == OpType::Write)) {
        auto it = shadow_.find(v->block);
        controller_->writebackWithData(
            cycle_, v->block, it == shadow_.end() ? 0 : it->second);
        ++counts.writebacks;
    }

    auto it = shadow_.find(block);
    return it == shadow_.end() ? 0 : it->second;
}

std::uint64_t
SecureMemory::read(Addr addr)
{
    return access(addr, OpType::Read, 0);
}

void
SecureMemory::write(Addr addr, std::uint64_t value)
{
    access(addr, OpType::Write, value);
}

void
SecureMemory::readBatch(const Addr *addrs, std::uint64_t *out,
                        std::size_t n)
{
    AccessCounts counts;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = accessOne(addrs[i], OpType::Read, 0, counts);
    flushCounts(counts);
}

void
SecureMemory::writeBatch(const Addr *addrs,
                         const std::uint64_t *values, std::size_t n)
{
    AccessCounts counts;
    for (std::size_t i = 0; i < n; ++i)
        accessOne(addrs[i], OpType::Write, values[i], counts);
    flushCounts(counts);
}

std::string
SecureMemory::dumpStats() const
{
    return hierarchy_->buildStatGroup().dump() +
           controller_->buildStatGroup().dump();
}

SimResult
SecureMemory::stats() const
{
    SimResult res;
    res.scheme = schemeName(cfg_.scheme);
    res.cycles = cycle_;
    res.references = references_;
    res.llcMisses = llcMisses_;
    res.writebacks = writebacks_;
    res.memAccesses = controller_->memAccessCount();

    const ControllerStats &cs = controller_->stats();
    const PolicyStats &ps = controller_->policyStats();
    res.pathAccesses = cs.pathAccesses;
    res.posMapAccesses = cs.posMapAccesses;
    res.bgEvictions = cs.bgEvictions;
    res.periodicDummies = cs.periodicDummies;
    res.prefetchHits = ps.prefetchHits;
    res.prefetchMisses = ps.prefetchMisses;
    res.merges = ps.merges;
    res.breaks = ps.breaks;
    res.avgStashOccupancy =
        controller_->oram().engine().stash().occupancy().mean();
    return res;
}

} // namespace proram
