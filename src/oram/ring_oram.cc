#include "oram/ring_oram.hh"

#include "obs/trace.hh"
#include "util/annotations.hh"
#include "util/bits.hh"

namespace proram
{

RingOram::RingOram(const OramConfig &cfg, PositionMap &pos_map)
    : OramScheme(cfg, pos_map), s_(cfg.resolvedRingS()),
      a_(cfg.resolvedRingA()),
      readCount_(tree_.numBuckets(), 0)
{
}

Leaf
RingOram::evictionLeafAt(std::uint64_t g) const
{
    // Reverse-lexicographic order: the g-th eviction writes leaf
    // bit-reverse(g mod 2^L). The sequence is public and fixed at
    // design time - it carries zero bits about the demand pattern.
    return Leaf{static_cast<std::uint32_t>(
        reverseBits(g & (tree_.numLeaves() - 1), tree_.levels()))};
}

Leaf
RingOram::nextEvictionLeaf()
{
    const Leaf leaf = evictionLeafAt(evictionSeq_++);
    if (evictionObserver_)
        evictionObserver_(leaf);
    return leaf;
}

PRORAM_HOT void
RingOram::noteBucketRead(TreeIdx node, std::uint32_t extracted)
{
    // Every bucket on an accessed path serves exactly one modeled
    // block read - a real block when it held one of interest, a dummy
    // otherwise. A bucket that held several interest blocks (a
    // co-located super block) is billed one read per block: the
    // hardware design would need that many single-block reads too.
    // The early-reshuffle itself is metadata-only at this simulator's
    // bucket granularity (the intra-bucket permutation is not modeled
    // - see ring_oram.hh).
    const std::uint32_t reads = extracted > 1 ? extracted : 1;
    bucketReads_ += reads;
    if (extracted == 0)
        ++dummyReads_;
    const std::uint32_t count = readCount_[node.value()] + reads;
    if (count >= s_) {
        readCount_[node.value()] = 0;
        ++earlyReshuffles_;
    } else {
        readCount_[node.value()] =
            static_cast<std::uint8_t>(count < 255 ? count : 255);
    }
}

PRORAM_OBLIVIOUS PRORAM_HOT void
RingOram::readPath(Leaf leaf)
{
    PRORAM_TRACE_SCOPE_ARG("oram", "readPath", "leaf", leaf);
    ++pathReads_;
    tree_.checkLeaf(leaf);
    const Stash::Tail window = stash_.openTail(pathSlots());
    std::size_t moved = 0;
    for (std::uint32_t l = 0; l <= tree_.levels(); ++l) {
        // Interest-set probe: only blocks mapped to the accessed leaf
        // leave their bucket (the demanded super block's members and
        // pos-map blocks all map there). Which block a bucket read
        // returns is client-internal metadata in the hardware design
        // (the slot header's leaf); the public pattern is one read per
        // bucket on the path either way.
        const TreeIdx node = tree_.pathNode(leaf, l);
        const std::uint32_t extracted =
            tree_.drainBucketOnLeaf(node, leaf, window, moved);
        moved += extracted;
        noteBucketRead(node, extracted);
    }
    stash_.commitTail(moved);
}

PRORAM_OBLIVIOUS PRORAM_HOT void
RingOram::writePath(Leaf leaf)
{
    // Ring ORAM writes nothing on the demand path: the access is
    // counted and every A-th one triggers the scheduled eviction on
    // the next reverse-lexicographic path. @p leaf is public either
    // way; using it only for the trace keeps the write schedule fully
    // demand-independent.
    PRORAM_TRACE_SCOPE_ARG("oram", "writePath", "leaf", leaf);
    if (++accessSeq_ % a_ == 0) {
        runScheduledEviction();
        return;
    }
    stash_.sampleOccupancy();
}

PRORAM_OBLIVIOUS Leaf
RingOram::runScheduledEviction()
{
    // Scheduled eviction: extract every real block on the g-th
    // reverse-lexicographic path into the stash (the rewrite reads
    // the whole path - resetting the read counters models the fresh
    // permutation the real rewrite installs), then greedily write the
    // path back from the stash.
    const Leaf ev = nextEvictionLeaf();
    PRORAM_TRACE_SCOPE_ARG("evict", "ringScheduled", "leaf", ev);
    ++pathReads_;
    drainPath(ev);
    for (std::uint32_t l = 0; l <= tree_.levels(); ++l)
        readCount_[tree_.pathNode(ev, l).value()] = 0;
    evictOnto(ev);
    return ev;
}

PRORAM_OBLIVIOUS Leaf
RingOram::dummyAccess()
{
    // Background eviction: run the next scheduled eviction pass
    // immediately, off schedule. The pass is pure eviction progress
    // (nothing is remapped), so stash occupancy cannot increase; the
    // returned leaf is the schedule's next reverse-lex path, public
    // by construction.
    PRORAM_TRACE_SCOPE("dummy", "ringBgEvict");
    return runScheduledEviction();
}

SchemeCounters
RingOram::schemeCounters() const
{
    SchemeCounters c;
    c.bucketReads = bucketReads_;
    c.dummyReads = dummyReads_;
    c.earlyReshuffles = earlyReshuffles_;
    c.scheduledEvictions = evictionSeq_;
    return c;
}

} // namespace proram
