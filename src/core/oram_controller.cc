#include "core/oram_controller.hh"

#include <algorithm>

#include "core/dynamic_policy.hh"
#include "core/static_policy.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace proram
{

OramController::OramController(const OramConfig &oram_cfg,
                               const ControllerConfig &ctl_cfg,
                               CacheHierarchy &hierarchy)
    : oramCfg_(oram_cfg), ctlCfg_(ctl_cfg), hierarchy_(hierarchy),
      oram_(oram_cfg),
      scheduler_(ctl_cfg.periodic, oram_cfg.pathAccessCycles())
{
    if (ctl_cfg.traditionalPrefetcher) {
        prefetcher_ =
            std::make_unique<StreamPrefetcher>(ctl_cfg.prefetcher);
    }
}

void
OramController::configureBaseline()
{
    policy_ = std::make_unique<BaselinePolicy>(oram_, *this);
    oram_.initialize(1);
}

void
OramController::configureStatic(std::uint32_t sb_size)
{
    policy_ =
        std::make_unique<StaticSuperBlockPolicy>(oram_, *this, sb_size);
    oram_.initialize(sb_size);
}

void
OramController::configureDynamic(const DynamicPolicyConfig &cfg)
{
    policy_ = std::make_unique<DynamicSuperBlockPolicy>(oram_, *this, cfg);
    oram_.initialize(1);
}

bool
OramController::probe(BlockId block) const
{
    return hierarchy_.probeLlc(block);
}

void
OramController::attachAuditor(obs::ObliviousnessAuditor *auditor)
{
    auditor_ = auditor;
    // Pos-map path accesses happen inside the unified front end; have
    // it report their public leaves directly.
    if (auditor) {
        oram_.setPosMapObserver([this](Leaf leaf) {
            auditor_->onPath(obs::PathKind::PosMap, leaf);
        });
        // Scheduled-eviction paths (Ring ORAM) report in schedule
        // order. Path ORAM never fires it.
        oram_.engine().setEvictionObserver([this](Leaf leaf) {
            auditor_->onEvictionPath(leaf);
        });
    } else {
        oram_.setPosMapObserver({});
        oram_.engine().setEvictionObserver({});
    }
}

std::uint64_t
OramController::performAccess(BlockId block, bool is_writeback,
                              OpType op,
                              const std::uint64_t *write_data,
                              std::uint64_t *read_out)
{
    panic_if(!policy_, "controller used before configure*()");
    panic_if(!oram_.space().isData(block),
             "CPU-visible access to non-data block ", block);
    PRORAM_TRACE_SCOPE_ARG("controller", "access", "block", block);

    // 1. Recursion: bring the pos-map chain on-chip (Sec. 2.3).
    const PosMapWalk walk = oram_.posMapWalk(block);
    std::uint64_t paths = walk.pathAccesses();
    stats_.posMapAccesses += walk.pathAccesses();
    walkDepth_.sample(walk.pathAccesses());

    // 2. Read the super block's path into the stash (Sec. 2.2 step 2).
    const Leaf leaf = oram_.posMap().leafOf(block);
    if (auditor_)
        auditor_->onPath(obs::PathKind::Real, leaf);
    OramScheme &engine = oram_.engine();
    engine.readPath(leaf);
    ++paths;
    // Lazy initialization: a block that was never placed is created
    // here (payload 0, current leaf) - a no-op in eager mode.
    oram_.ensureCreated(block);
    std::uint64_t *payload = engine.stash().findData(block);
    panic_if(!payload, "block ", block, " absent from path ", leaf,
             " and stash (invariant broken)");

    // 3. Payload (null write_data = remap-only, payload preserved).
    if (op == OpType::Write && write_data)
        *payload = *write_data;
    if (read_out)
        *read_out = *payload;

    // 4. Policy: remap / merge / break / choose prefetches
    //    (steps 4 of the paper, plus Algorithms 1-2).
    const AccessDecision decision =
        policy_->onDataAccess(block, is_writeback);
    sbSize_.sample(oram_.posMap().entry(block).sbSize());

    // 5. Write-back phase (step 5).
    engine.writePath(leaf);

    // 6. Hand prefetched siblings to the LLC. Insertions that would
    //    displace dirty lines are dropped by the hierarchy (a
    //    prefetch must not force write-backs); undo their marking.
    for (BlockId p : decision.prefetches) {
        BlockId clean_victim = kInvalidBlock;
        if (!hierarchy_.insertPrefetch(p, &clean_victim))
            policy_->onPrefetchDropped(p);
    }

    // 7. Background eviction keeps the stash bounded (Sec. 2.4),
    //    within the per-request budget (see ControllerConfig).
    std::uint64_t spent = 0;
    while (engine.stash().overCapacity() &&
           spent < ctlCfg_.maxBgEvictionsPerRequest) {
        const Leaf dummy_leaf = engine.dummyAccess();
        if (auditor_)
            auditor_->onPath(obs::PathKind::BgEvict, dummy_leaf);
        ++paths;
        ++spent;
        ++stats_.bgEvictions;
    }
    return paths;
}

void
OramController::maybeRollEpoch(Cycles now)
{
    const std::uint64_t requests =
        stats_.realRequests + stats_.writebacks;
    if (requests - epochRequestBase_ < ctlCfg_.epochRequests)
        return;

    const std::uint64_t epoch_requests = requests - epochRequestBase_;
    const std::uint64_t epoch_bg = stats_.bgEvictions - epochBgBase_;
    const double eviction_rate =
        static_cast<double>(epoch_bg) / epoch_requests;
    const Cycles wall =
        now > epochStart_ ? now - epochStart_ : Cycles{1};
    const double access_rate =
        std::min(1.0, static_cast<double>(epochBusy_.value()) /
                          static_cast<double>(wall.value()));

    policy_->onEpoch(eviction_rate, access_rate);

    epochRequestBase_ = requests;
    epochBgBase_ = stats_.bgEvictions;
    epochStart_ = now;
    epochBusy_ = Cycles{0};
}

void
OramController::drainPeriodicDummies(Cycles now)
{
    // Idle periodic slots that elapsed ran dummy accesses.
    const std::uint64_t elapsed = scheduler_.drainDummies(now);
    for (std::uint64_t i = 0; i < elapsed; ++i) {
        const Leaf leaf = oram_.engine().dummyAccess();
        PRORAM_TRACE_EVENT("dummy", "periodic", "leaf", leaf);
        if (auditor_)
            auditor_->onPath(obs::PathKind::PeriodicDummy, leaf);
    }
    stats_.periodicDummies += elapsed;
    stats_.pathAccesses += elapsed;
}

Cycles
OramController::dataAccess(Cycles now, BlockId block, OpType op,
                           std::uint64_t write_data,
                           std::uint64_t *read_out)
{
    PRORAM_TRACE_SCOPE_ARG("controller", "dataAccess", "block", block);
    drainPeriodicDummies(now);

    std::uint64_t paths =
        performAccess(block, false, op,
                      op == OpType::Write ? &write_data : nullptr,
                      read_out);
    ++stats_.realRequests;
    stats_.pathAccesses += paths;

    const PeriodicGrant grant = scheduler_.schedule(now, paths);
    if (auditor_)
        auditor_->onGrant(grant.start, paths);
    requestLatency_.sample((grant.completion - now).value());
    epochBusy_ += grant.completion - grant.start;
    busyUntil_ = grant.completion;
    maybeRollEpoch(grant.completion);

    // The traditional prefetcher (Fig. 5) trains in onDemandTouch,
    // which the core calls exactly once per demand access (cache hit
    // or miss-return); training here too would double-observe misses.
    return grant.completion;
}

Cycles
OramController::demandAccess(Cycles now, BlockId block, OpType op)
{
    return dataAccess(now, block, op, 0, nullptr);
}

void
OramController::writebackOne(Cycles now, BlockId block)
{
    // Timing-only write-back: remap the super block, preserve payload
    // (the trace CPU carries no data).
    PRORAM_TRACE_SCOPE_ARG("controller", "writeback", "block", block);
    drainPeriodicDummies(now);

    std::uint64_t paths =
        performAccess(block, true, OpType::Write, nullptr, nullptr);
    ++stats_.writebacks;
    stats_.pathAccesses += paths;

    const PeriodicGrant grant = scheduler_.schedule(now, paths);
    if (auditor_)
        auditor_->onGrant(grant.start, paths);
    requestLatency_.sample((grant.completion - now).value());
    epochBusy_ += grant.completion - grant.start;
    busyUntil_ = grant.completion;
    maybeRollEpoch(grant.completion);
}

void
OramController::writebackAccess(Cycles now, BlockId block)
{
    writebackOne(now, block);
}

void
OramController::writebackBatch(Cycles now, const BlockId *blocks,
                               std::size_t n)
{
    // One virtual entry for the whole batch; per-request scheduling,
    // epoch rolls and counters are unchanged (and must stay so -
    // maybeRollEpoch reads the running counts request by request), so
    // results are identical to n writebackAccess() calls.
    for (std::size_t i = 0; i < n; ++i)
        writebackOne(now, blocks[i]);
}

Cycles
OramController::writebackWithData(Cycles now, BlockId block,
                                  std::uint64_t data)
{
    PRORAM_TRACE_SCOPE_ARG("controller", "writebackData", "block",
                           block);
    drainPeriodicDummies(now);

    std::uint64_t paths =
        performAccess(block, true, OpType::Write, &data, nullptr);
    ++stats_.writebacks;
    stats_.pathAccesses += paths;

    const PeriodicGrant grant = scheduler_.schedule(now, paths);
    if (auditor_)
        auditor_->onGrant(grant.start, paths);
    requestLatency_.sample((grant.completion - now).value());
    epochBusy_ += grant.completion - grant.start;
    busyUntil_ = grant.completion;
    maybeRollEpoch(grant.completion);
    return grant.completion;
}

void
OramController::onDemandTouch(Cycles now, BlockId block)
{
    policy_->onDemandTouch(block);

    // A demand hit on a traditionally-prefetched line keeps its
    // stream alive (Fig. 5 experiment).
    if (prefetcher_) {
        Cycles t = std::max(now, busyUntil_);
        for (BlockId cand : prefetcher_->observe(block)) {
            if (cand.value() >= oram_.space().numDataBlocks() ||
                hierarchy_.probeLlc(cand)) {
                continue;
            }
            PRORAM_TRACE_EVENT("controller", "streamPrefetch",
                               "block", cand);
            std::uint64_t p =
                performAccess(cand, false, OpType::Read, nullptr,
                              nullptr);
            stats_.pathAccesses += p;
            ++stats_.traditionalPrefetches;
            BlockId clean_victim = kInvalidBlock;
            hierarchy_.insertPrefetch(cand, &clean_victim);
            const PeriodicGrant g = scheduler_.schedule(t, p);
            if (auditor_)
                auditor_->onGrant(g.start, p);
            epochBusy_ += g.completion - g.start;
            busyUntil_ = g.completion;
            t = g.completion;
        }
    }
}

void
OramController::finalize(Cycles end)
{
    drainPeriodicDummies(end);
}

std::uint64_t
OramController::memAccessCount() const
{
    return stats_.pathAccesses;
}

stats::StatGroup
OramController::buildStatGroup() const
{
    stats::StatGroup g("oram_controller");
    auto scalar = [&](const char *name, const char *desc,
                      const std::uint64_t &field) {
        const std::uint64_t *p = &field;
        g.addValue(name, desc,
                   [p] { return static_cast<double>(*p); });
    };
    scalar("realRequests", "demand misses served", stats_.realRequests);
    scalar("writebacks", "dirty-victim ORAM accesses",
           stats_.writebacks);
    scalar("pathAccesses", "total tree paths read+written",
           stats_.pathAccesses);
    scalar("posMapAccesses", "paths spent on PLB misses",
           stats_.posMapAccesses);
    scalar("bgEvictions", "background-eviction paths",
           stats_.bgEvictions);
    scalar("periodicDummies", "timing-protection dummy accesses",
           stats_.periodicDummies);
    scalar("traditionalPrefetches", "stream-prefetcher ORAM accesses",
           stats_.traditionalPrefetches);

    const SuperBlockPolicy *pol = policy_.get();
    g.addValue("merges", "super blocks merged (Alg. 1)", [pol] {
        return pol ? static_cast<double>(pol->policyStats().merges)
                   : 0.0;
    });
    g.addValue("breaks", "super blocks broken (Alg. 2)", [pol] {
        return pol ? static_cast<double>(pol->policyStats().breaks)
                   : 0.0;
    });
    g.addValue("prefetchHits", "super-block prefetches used", [pol] {
        return pol
                   ? static_cast<double>(pol->policyStats().prefetchHits)
                   : 0.0;
    });
    g.addValue("prefetchMissRate", "unused / issued prefetches",
               [pol] { return pol ? pol->policyStats().missRate()
                                  : 0.0; });

    const UnifiedOram *o = &oram_;
    g.addValue("stashOccupancyAvg", "mean stash blocks per access",
               [o] { return o->engine().stash().occupancy().mean(); });
    g.addValue("stashOccupancyMax", "peak sampled stash occupancy",
               [o] { return o->engine().stash().occupancy().max(); });
    g.addValue("plbHits", "position-map block cache hits",
               [o] { return static_cast<double>(o->plb().hits()); });
    g.addValue("plbMisses", "position-map block cache misses",
               [o] { return static_cast<double>(o->plb().misses()); });

    // Per-scheme protocol counters (zero under Path ORAM): Ring's
    // bucket-granular read traffic and its decoupled write schedule.
    g.addValue("ringBucketReads",
               "modeled single-block bucket reads (ring scheme)", [o] {
                   return static_cast<double>(
                       o->engine().schemeCounters().bucketReads);
               });
    g.addValue("ringDummyReads",
               "bucket reads that returned a dummy (ring scheme)", [o] {
                   return static_cast<double>(
                       o->engine().schemeCounters().dummyReads);
               });
    g.addValue("ringEarlyReshuffles",
               "buckets reshuffled on an exhausted read budget", [o] {
                   return static_cast<double>(
                       o->engine().schemeCounters().earlyReshuffles);
               });
    g.addValue("ringScheduledEvictions",
               "reverse-lexicographic eviction passes run", [o] {
                   return static_cast<double>(
                       o->engine().schemeCounters().scheduledEvictions);
               });

    // Slot-arena materialization telemetry (DESIGN.md Sec. 12):
    // memory cost as a first-class metric next to the path counters.
    g.addValue("arenaChunksMaterialized",
               "slot-arena chunks materialized (first writes)", [o] {
                   return static_cast<double>(
                       o->engine().tree().arena().chunksMaterialized());
               });
    g.addValue("arenaBytesResident",
               "lane bytes of materialized arena chunks", [o] {
                   return static_cast<double>(
                       o->engine().tree().arena().bytesResident());
               });
    g.addValue("arenaBytesTotal",
               "lane bytes if every chunk were materialized", [o] {
                   return static_cast<double>(
                       o->engine().tree().arena().bytesTotal());
               });
    return g;
}

} // namespace proram
