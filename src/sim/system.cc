#include "sim/system.hh"

#include "obs/metrics.hh"
#include "util/bits.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace proram
{

namespace
{

bool
auditEnvEnabled()
{
    return envKnob("PRORAM_AUDIT", 0, 0, 1) == 1;
}

} // namespace

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

    switch (cfg_.scheme) {
      case MemScheme::Dram:
      case MemScheme::DramPrefetch: {
        DramBackendConfig dcfg = cfg_.dram;
        dcfg.prefetch = cfg_.scheme == MemScheme::DramPrefetch;
        backend_ = std::make_unique<DramBackend>(dcfg);
        break;
      }
      case MemScheme::OramBaseline:
      case MemScheme::OramPrefetch:
      case MemScheme::OramStatic:
      case MemScheme::OramDynamic: {
        ControllerConfig ccfg = cfg_.controller;
        ccfg.traditionalPrefetcher =
            cfg_.scheme == MemScheme::OramPrefetch;
        auto ctl = std::make_unique<OramController>(cfg_.oram, ccfg,
                                                    *hierarchy_);
        if (cfg_.scheme == MemScheme::OramStatic)
            ctl->configureStatic(cfg_.staticSbSize);
        else if (cfg_.scheme == MemScheme::OramDynamic)
            ctl->configureDynamic(cfg_.dynamic);
        else
            ctl->configureBaseline();
        controller_ = ctl.get();
        backend_ = std::move(ctl);
        break;
      }
    }

    if (controller_ && (cfg_.audit.enabled || auditEnvEnabled())) {
        const PeriodicScheduler &sched = controller_->scheduler();
        const std::uint64_t num_leaves = 1ULL << cfg_.oram.levels();
        // The dummy-fill identity (grant start = previous horizon +
        // drained dummies * period) holds because every scheduled
        // request drains idle slots first. The traditional
        // prefetcher schedules its prefetch accesses without a
        // drain, so the check is gated off for that scheme.
        const bool check_fill =
            sched.enabled() && cfg_.scheme != MemScheme::OramPrefetch;
        auditor_ = std::make_unique<obs::ObliviousnessAuditor>(
            cfg_.audit, num_leaves,
            sched.enabled() ? sched.period() : Cycles{0}, check_fill);
        controller_->attachAuditor(auditor_.get());
    }

    cpu_ = std::make_unique<TraceCpu>(*hierarchy_, *backend_,
                                      cfg_.hierarchy.l1.lineBytes,
                                      cfg_.cpuBatch);
}

System::~System() = default;

std::string
System::dumpStats() const
{
    std::string out = hierarchy_->buildStatGroup().dump();
    if (controller_)
        out += controller_->buildStatGroup().dump();
    return out;
}

std::string
System::metricsJson() const
{
    obs::MetricsRegistry reg;
    reg.addLabel("scheme", schemeName(cfg_.scheme));
    if (controller_)
        reg.addLabel("oramScheme", controller_->oram().engine().name());
    reg.addGroup(hierarchy_->buildStatGroup());
    if (controller_) {
        reg.addGroup(controller_->buildStatGroup());
        reg.addLogHistogram(
            "requestLatency",
            "cycles from request arrival to grant completion",
            &controller_->requestLatencyHist());
        reg.addLogHistogram(
            "posMapWalkDepth",
            "position-map paths fetched per demand access",
            &controller_->walkDepthHist());
        reg.addLogHistogram(
            "superBlockSize",
            "super-block size of each accessed block (post-policy)",
            &controller_->sbSizeHist());
        reg.addDistribution(
            "stashOccupancy", "stash blocks after each write-back",
            &controller_->oram().engine().stash().occupancy());
    }
    return reg.json();
}

SimResult
System::run(TraceGenerator &gen)
{
    const CpuRunResult cpu = cpu_->run(gen);

    SimResult res;
    res.cycles = cpu.cycles;
    res.references = cpu.references;
    res.llcMisses = cpu.llcMisses;
    res.writebacks = cpu.writebacks;
    finishResult(res);
    return res;
}

namespace
{

/** Deterministic per-record write payload: a function of the trace
 *  index only. */
std::uint64_t
writePayload(std::size_t index)
{
    return (static_cast<std::uint64_t>(index) + 1) *
           0x9E3779B97F4A7C15ULL;
}

} // namespace

SimResult
System::runQueue(const std::vector<TraceRecord> &records,
                 std::vector<std::uint64_t> *payloads)
{
    panic_if(!controller_,
             "runQueue drives the ORAM controller directly; use run() "
             "for DRAM schemes");
    if (payloads != nullptr)
        payloads->assign(records.size(), 0);
    const std::uint32_t shift = log2Floor(cfg_.hierarchy.l1.lineBytes);
    for (std::size_t i = 0; i < records.size(); ++i) {
        controller_->dataAccess(
            controller_->busyUntil(), BlockId{records[i].addr >> shift},
            records[i].op, writePayload(i),
            payloads != nullptr ? &(*payloads)[i] : nullptr);
    }

    SimResult res;
    res.cycles = controller_->busyUntil();
    res.references = records.size();
    finishResult(res);
    return res;
}

void
System::finishResult(SimResult &res) const
{
    res.scheme = schemeName(cfg_.scheme);
    res.memAccesses = backend_->memAccessCount();

    if (controller_) {
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
    }

    if (auditor_) {
        const obs::AuditReport rep = auditor_->report();
        panic_if(!rep.pass(),
                 "obliviousness audit FAILED for scheme ",
                 schemeName(cfg_.scheme), "\n", rep.summary());
    }
}

} // namespace proram
