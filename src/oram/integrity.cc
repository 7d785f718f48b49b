#include "oram/integrity.hh"

#include <sstream>
#include <vector>

#include "util/bits.hh"

namespace proram
{

namespace
{

std::string
str(const char *what, BlockId id)
{
    std::ostringstream os;
    os << what << " (block " << id << ")";
    return os.str();
}

} // namespace

IntegrityReport
checkIntegrity(const UnifiedOram &oram)
{
    IntegrityReport report;
    const BinaryTree &tree = oram.engine().tree();
    const PositionMap &pos = oram.posMap();
    const BlockSpace &space = oram.space();
    const std::uint64_t total = space.numTotalBlocks();

    // Pass 1: locate every tree copy; detect duplicates, misplaced
    // blocks and stale slot headers. A block at bucket `node`, level
    // `l` must satisfy node == nodeOnPath(leaf(id), l), and the leaf
    // in its slot header must equal leaf(id): readPath hands the
    // header leaf to the stash, so a stale one would evict the block
    // onto the wrong path. The header stays right only because every
    // remap after initialization hits a stash-resident block. The
    // copy counts live in a dense per-id table (ids are contiguous in
    // [0, total)); pass 3 walks the whole range anyway.
    std::vector<int> copies(total, 0);
    for (TreeIdx node{0}; node.value() < tree.numBuckets(); ++node) {
        // Recover the level of this heap node.
        const Level level{log2Floor(node.value() + 1)};
        for (std::uint32_t i = 0; i < tree.z(); ++i) {
            const BlockId id = tree.slotId(node, i);
            if (id == kInvalidBlock)
                continue;
            if (id.value() >= total) {
                report.fail(str("tree slot holds out-of-range id", id));
                continue;
            }
            ++copies[id.value()];
            const Leaf leaf = pos.leafOf(id);
            if (leaf == kInvalidLeaf || leaf.value() >= tree.numLeaves()) {
                report.fail(str("tree block has invalid leaf", id));
                continue;
            }
            if (tree.nodeOnPath(leaf, level) != node)
                report.fail(str("block off its mapped path", id));
            if (tree.slotLeaf(node, i) != leaf)
                report.fail(str("slot header leaf differs from the "
                                "position map",
                                id));
        }
    }

    // Pass 2: stash copies.
    for (BlockId id : oram.engine().stash().residentIds()) {
        if (id.value() >= total) {
            report.fail(str("stash holds out-of-range id", id));
            continue;
        }
        ++copies[id.value()];
    }

    // Pass 3: exactly-once existence. Under lazy initialization a
    // block that was never created has no physical copy by design
    // (it is virtually resident with payload 0); a *created* block
    // must still exist exactly once, and an uncreated block with a
    // copy means the created bitset lies.
    for (BlockId id{0}; id.value() < total; ++id) {
        const int n = copies[id.value()];
        if (n == 0) {
            if (oram.isCreated(id))
                report.fail(str("block lost (no copy anywhere)", id));
        } else if (!oram.isCreated(id)) {
            report.fail(str("uncreated block has a tree/stash copy",
                            id));
        } else if (n > 1) {
            report.fail(str("block duplicated", id));
        }
    }

    // Pass 4: super-block geometry and co-location.
    for (BlockId id{0}; id.value() < total; ++id) {
        const PosEntry &e = pos.entry(id);
        const std::uint32_t size = e.sbSize();
        if (!space.isData(id)) {
            if (size != 1)
                report.fail(str("pos-map block inside a super block", id));
            continue;
        }
        if (size == 1)
            continue;
        const std::uint32_t stride_log = e.sbStrideLog;
        if ((static_cast<std::uint64_t>(size) << stride_log) >
            space.fanout()) {
            report.fail(str("super block exceeds pos-map fanout", id));
            continue;
        }
        // Member set: blocks agreeing with id outside the bit field
        // [stride_log, stride_log + log2(size)) - contiguous when
        // stride_log is 0, strided otherwise (Sec. 6.2 extension).
        const std::uint64_t field =
            (static_cast<std::uint64_t>(size) - 1) << stride_log;
        const BlockId base{id.value() & ~field};
        for (std::uint32_t i = 0; i < size; ++i) {
            const BlockId m =
                base + (static_cast<std::uint64_t>(i) << stride_log);
            if (m.value() >= space.numDataBlocks()) {
                report.fail(str("super block spills past data space", id));
                break;
            }
            const PosEntry &me = pos.entry(m);
            if (me.sbSizeLog != e.sbSizeLog ||
                me.sbStrideLog != e.sbStrideLog) {
                report.fail(str("super block geometry mismatch", m));
            } else if (me.leaf != e.leaf) {
                report.fail(str("super block members on different leaves",
                                m));
            }
        }
    }

    return report;
}

} // namespace proram
