#include "mem/cache_hierarchy.hh"

#include "util/annotations.hh"
#include "util/logging.hh"

namespace proram
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg)
    : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2)
{
    fatal_if(cfg.l1.lineBytes != cfg.l2.lineBytes,
             "L1 and LLC must share a line size");
}

PRORAM_HOT HitLevel
CacheHierarchy::lookup(BlockId block, OpType op)
{
    if (l1_.access(block, op))
        return HitLevel::L1;

    if (l2_.access(block, op)) {
        // Fill L1 from L2; an L1 victim writes back into the
        // (inclusive) LLC, so it only needs its dirty bit merged.
        if (auto victim = l1_.insert(block, op == OpType::Write)) {
            if (victim->dirty)
                l2_.markDirty(victim->block);
        }
        return HitLevel::L2;
    }
    return HitLevel::Miss;
}

EvictedLine
CacheHierarchy::reconcileVictim(const EvictedLine &victim)
{
    EvictedLine out = victim;
    // Inclusion: an LLC eviction back-invalidates the L1 copy; if the
    // L1 copy was dirtier than the LLC's, the write-back carries it.
    if (auto l1_dirty = l1_.invalidate(victim.block))
        out.dirty = out.dirty || *l1_dirty;
    return out;
}

PRORAM_HOT std::optional<EvictedLine>
CacheHierarchy::fillFromMemory(BlockId block, bool dirty)
{
    std::optional<EvictedLine> writeback;

    if (auto l2_victim = l2_.insert(block, dirty)) {
        const EvictedLine v = reconcileVictim(*l2_victim);
        if (v.dirty)
            writeback = v;
    }
    if (auto l1_victim = l1_.insert(block, dirty)) {
        if (l1_victim->dirty)
            l2_.markDirty(l1_victim->block);
    }
    return writeback;
}

bool
CacheHierarchy::insertPrefetch(BlockId block, BlockId *clean_victim)
{
    if (clean_victim)
        *clean_victim = kInvalidBlock;
    if (l2_.probe(block))
        return true; // already resident; nothing to do

    // Refuse insertions whose victim is dirty (in L1 or L2).
    if (auto victim = l2_.peekVictim(block)) {
        bool dirty = victim->dirty;
        if (auto l1_dirty = l1_.peekDirty(victim->block))
            dirty = dirty || *l1_dirty;
        if (dirty)
            return false;
    }

    auto l2_victim = l2_.insert(block, false, /*low_priority=*/true);
    if (!l2_victim)
        return true;
    EvictedLine v = reconcileVictim(*l2_victim);
    panic_if(v.dirty, "prefetch displaced a dirty line despite check");
    if (clean_victim)
        *clean_victim = v.block;
    return true;
}

bool
CacheHierarchy::probeLlc(BlockId block) const
{
    return l2_.probe(block);
}

stats::StatGroup
CacheHierarchy::buildStatGroup() const
{
    stats::StatGroup g("caches");
    const SetAssocCache *l1 = &l1_;
    const SetAssocCache *l2 = &l2_;
    g.addValue("l1Hits", "L1 hits",
               [l1] { return static_cast<double>(l1->hits()); });
    g.addValue("l1Misses", "L1 misses",
               [l1] { return static_cast<double>(l1->misses()); });
    g.addValue("llcHits", "LLC hits",
               [l2] { return static_cast<double>(l2->hits()); });
    g.addValue("llcMisses", "LLC misses",
               [l2] { return static_cast<double>(l2->misses()); });
    g.addValue("llcDirtyEvictions", "dirty LLC victims", [l2] {
        return static_cast<double>(l2->dirtyEvictions());
    });
    return g;
}

std::vector<BlockId>
CacheHierarchy::drainDirty()
{
    std::vector<BlockId> dirty;
    for (BlockId b : l2_.residentBlocks()) {
        auto l2_dirty = l2_.invalidate(b);
        bool is_dirty = l2_dirty.value_or(false);
        if (auto l1_dirty = l1_.invalidate(b))
            is_dirty = is_dirty || *l1_dirty;
        if (is_dirty)
            dirty.push_back(b);
    }
    return dirty;
}

} // namespace proram
