/**
 * @file
 * The trusted ORAM controller: ties the unified ORAM, a super-block
 * policy, the LLC and the (optional) periodic-access scheduler into
 * one memory backend. This is the component Fig. 1 of the paper draws
 * inside the trusted domain.
 */

#ifndef PRORAM_CORE_ORAM_CONTROLLER_HH
#define PRORAM_CORE_ORAM_CONTROLLER_HH

#include <memory>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "obs/audit.hh"
#include "stats/stats.hh"
#include "mem/backend.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/stream_prefetcher.hh"
#include "oram/periodic.hh"
#include "oram/unified_oram.hh"

namespace proram
{

/** Controller configuration beyond the OramConfig geometry. */
struct ControllerConfig
{
    PeriodicConfig periodic{};
    /** Rate-window length in memory requests (Sec. 4.4.2). */
    std::uint64_t epochRequests = 1000;
    /**
     * Background-eviction budget per request. Pathological
     * configurations (e.g. static sbsize 8 at Z=3) leave more blocks
     * permanently homeless than the stash holds; real hardware would
     * thrash dummies forever, so the simulator caps the dummies per
     * request and carries the excess - the performance collapse is
     * still fully visible through the dummy-access count (Fig. 7).
     */
    std::uint64_t maxBgEvictionsPerRequest = 64;
    /**
     * Attach a traditional stream prefetcher in front of the ORAM
     * (the Fig. 5 negative result), issuing full ORAM accesses for
     * predicted blocks.
     */
    bool traditionalPrefetcher = false;
    PrefetcherConfig prefetcher{};
};

/** Counters the experiment harness reads after a run. */
struct ControllerStats
{
    std::uint64_t realRequests = 0;   ///< demand misses served
    std::uint64_t writebacks = 0;     ///< dirty-victim accesses
    std::uint64_t pathAccesses = 0;   ///< total tree paths touched
    std::uint64_t posMapAccesses = 0; ///< paths spent on PLB misses
    std::uint64_t bgEvictions = 0;    ///< background-eviction paths
    std::uint64_t periodicDummies = 0;
    std::uint64_t traditionalPrefetches = 0;
};

/**
 * The ORAM memory backend. Owns the functional ORAM and the policy;
 * holds a reference to the LLC for prefetch insertion and neighbour
 * probing.
 */
class OramController : public MemBackend, public LlcProbe
{
  public:
    OramController(const OramConfig &oram_cfg,
                   const ControllerConfig &ctl_cfg,
                   CacheHierarchy &hierarchy);

    /** Choose the scheme, then initialize the ORAM contents. */
    void configureBaseline();
    void configureStatic(std::uint32_t sb_size);
    void configureDynamic(const DynamicPolicyConfig &cfg);

    // MemBackend
    Cycles demandAccess(Cycles now, BlockId block, OpType op) override;
    void writebackAccess(Cycles now, BlockId block) override;
    void writebackBatch(Cycles now, const BlockId *blocks,
                        std::size_t n) override;
    void onDemandTouch(Cycles now, BlockId block) override;
    void finalize(Cycles end) override;
    std::uint64_t memAccessCount() const override;

    /** Write-back carrying a real payload (SecureMemory facade). */
    Cycles writebackWithData(Cycles now, BlockId block,
                             std::uint64_t data);

    // LlcProbe (handed to the policy)
    bool probe(BlockId block) const override;

    /**
     * Functional read/write with payload, used by the SecureMemory
     * facade and the tests. Timing identical to demandAccess.
     */
    Cycles dataAccess(Cycles now, BlockId block, OpType op,
                      std::uint64_t write_data, std::uint64_t *read_out);

    const ControllerStats &stats() const { return stats_; }

    /**
     * Attach the obliviousness auditor: the controller reports every
     * path access (with its public leaf) and every scheduler grant.
     * Pure observation - attaching changes no simulated behaviour.
     */
    void attachAuditor(obs::ObliviousnessAuditor *auditor);

    // Observability histograms (sampled unconditionally; the cost is
    // a couple of integer ops per request).
    /** Request latency (grant completion - arrival), in cycles. */
    const stats::LogHistogram &requestLatencyHist() const
    {
        return requestLatency_;
    }
    /** Pos-map path accesses per demand request (recursion cost). */
    const stats::LogHistogram &walkDepthHist() const
    {
        return walkDepth_;
    }
    /** Super-block size of each accessed data block, post-policy. */
    const stats::LogHistogram &sbSizeHist() const { return sbSize_; }

    /**
     * gem5-style named-statistics view over the controller, the
     * policy and the ORAM internals. The group holds closures into
     * this object: use it only while the controller is alive.
     */
    stats::StatGroup buildStatGroup() const;

    const PolicyStats &policyStats() const
    {
        return policy_->policyStats();
    }
    UnifiedOram &oram() { return oram_; }
    const UnifiedOram &oram() const { return oram_; }
    SuperBlockPolicy &policy() { return *policy_; }
    const PeriodicScheduler &scheduler() const { return scheduler_; }
    Cycles busyUntil() const { return busyUntil_; }

  private:
    /**
     * The functional part of one logical ORAM access (pos-map walk +
     * super-block path access + policy + background eviction).
     * @param write_data new payload, or nullptr to preserve the
     *        block's current payload (remap-only write-back)
     * @return the number of path accesses performed.
     */
    std::uint64_t performAccess(BlockId block, bool is_writeback,
                                OpType op,
                                const std::uint64_t *write_data,
                                std::uint64_t *read_out);

    /** Refresh the policy's Eq. 1 rate window. */
    void maybeRollEpoch(Cycles now);

    /** Shared body of writebackAccess / writebackBatch. */
    void writebackOne(Cycles now, BlockId block);

    /** Run the dummy accesses of idle periodic slots up to @p now,
     *  with observability reporting. */
    void drainPeriodicDummies(Cycles now);

    OramConfig oramCfg_;
    ControllerConfig ctlCfg_;
    CacheHierarchy &hierarchy_;
    UnifiedOram oram_;
    std::unique_ptr<SuperBlockPolicy> policy_;
    PeriodicScheduler scheduler_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;

    ControllerStats stats_;
    Cycles busyUntil_{0};
    obs::ObliviousnessAuditor *auditor_ = nullptr;

    stats::LogHistogram requestLatency_;
    stats::LogHistogram walkDepth_;
    stats::LogHistogram sbSize_;

    // Epoch bookkeeping for adaptive thresholding.
    std::uint64_t epochRequestBase_ = 0;
    std::uint64_t epochBgBase_ = 0;
    Cycles epochStart_{0};
    Cycles epochBusy_{0};
};

} // namespace proram

#endif // PRORAM_CORE_ORAM_CONTROLLER_HH
