#include "oram/config.hh"

#include <cmath>
#include <cstdlib>

#include "util/bits.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace proram
{

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Path:
        return "path";
      case SchemeKind::Ring:
        return "ring";
      case SchemeKind::Default:
        return "default";
    }
    return "unknown";
}

SchemeKind
parseSchemeKind(const std::string &name)
{
    if (name == "path")
        return SchemeKind::Path;
    if (name == "ring")
        return SchemeKind::Ring;
    fatal("unknown ORAM scheme '", name, "' (want path or ring)");
}

SchemeKind
OramConfig::resolvedScheme() const
{
    if (scheme != SchemeKind::Default)
        return scheme;
    const char *env = std::getenv("PRORAM_SCHEME");
    return env != nullptr ? parseSchemeKind(env) : SchemeKind::Path;
}

namespace
{

std::uint32_t
resolveRingKnob(std::uint32_t configured, const char *env_name,
                std::uint32_t fallback, std::uint32_t max)
{
    if (configured != 0)
        return configured;
    return static_cast<std::uint32_t>(
        envKnob(env_name, fallback, 1, max));
}

} // namespace

std::uint32_t
OramConfig::resolvedRingS() const
{
    // Capped at 255: the per-bucket read counters are one byte each
    // so paper-scale trees pay 1 B/bucket of metadata.
    const std::uint32_t fallback = 2 * z < 255 ? 2 * z : 255;
    return resolveRingKnob(ringS, "PRORAM_RING_S", fallback, 255);
}

std::uint32_t
OramConfig::resolvedRingA() const
{
    return resolveRingKnob(ringA, "PRORAM_RING_A", 2, 1U << 16);
}

std::uint32_t
OramConfig::posMapFanout() const
{
    // Each position-map block stores blockBytes/posMapEntryBytes leaf
    // labels (the paper: 128 B block => 32 labels of ~27 bits + flags).
    return blockBytes / posMapEntryBytes;
}

std::uint32_t
OramConfig::posMapLevels() const
{
    const std::uint32_t fanout = posMapFanout();
    std::uint64_t count = numDataBlocks;
    std::uint32_t levels = 0;
    // Keep adding position-map levels until the next table fits
    // on-chip, capped by the configured hierarchy count (the data ORAM
    // is hierarchy #1).
    while (levels + 1 < hierarchies && count > fanout) {
        count = divCeil(count, fanout);
        ++levels;
    }
    return levels;
}

std::uint64_t
OramConfig::onChipPosMapEntries() const
{
    const std::uint32_t fanout = posMapFanout();
    std::uint64_t count = numDataBlocks;
    for (std::uint32_t l = 0; l < posMapLevels(); ++l)
        count = divCeil(count, fanout);
    return count;
}

std::uint64_t
OramConfig::numTotalBlocks() const
{
    const std::uint32_t fanout = posMapFanout();
    std::uint64_t total = numDataBlocks;
    std::uint64_t count = numDataBlocks;
    for (std::uint32_t l = 0; l < posMapLevels(); ++l) {
        count = divCeil(count, fanout);
        total += count;
    }
    return total;
}

std::uint32_t
OramConfig::levels() const
{
    // 2^L leaves with L = ceil(lg(totalBlocks)) - 2: two-to-four
    // blocks per leaf, i.e. ~1/Z to ~2/Z slot utilization for Z=3 -
    // the operating point Ren et al. showed viable with background
    // eviction, and high enough that super blocks exert real stash
    // pressure (the effect Figs. 7/12 measure).
    const std::uint64_t total = numTotalBlocks();
    const unsigned lg = log2Ceil(total < 4 ? 4 : total);
    return lg >= 2 ? lg - 2 : 1;
}

std::uint32_t
OramConfig::effectiveTimingLevels() const
{
    return timingLevels != 0 ? timingLevels : levels();
}

Cycles
OramConfig::pathAccessCycles() const
{
    const std::uint64_t buckets = effectiveTimingLevels() + 1;
    const double bytes_moved =
        2.0 * static_cast<double>(buckets) * z * blockBytes;
    return pathOverheadCycles +
           static_cast<Cycles>(std::ceil(bytes_moved / dramBytesPerCycle));
}

void
OramConfig::validate() const
{
    fatal_if(numDataBlocks < 8, "ORAM needs at least 8 data blocks");
    fatal_if(blockBytes == 0 || !isPowerOf2(blockBytes),
             "ORAM block size must be a power of two");
    fatal_if(z == 0, "bucket size Z must be at least 1");
    fatal_if(hierarchies == 0, "need at least the data ORAM hierarchy");
    fatal_if(posMapEntryBytes == 0 || blockBytes < posMapEntryBytes,
             "position-map entry must fit in a block");
    fatal_if(!isPowerOf2(posMapFanout()),
             "position-map fanout must be a power of two");
    fatal_if(dramBytesPerCycle <= 0.0, "DRAM bandwidth must be positive");
    fatal_if(stashCapacity == 0, "stash capacity must be positive");
    fatal_if(ringS > 255, "ring dummy budget S out of range (max 255)");
    fatal_if(ringA > (1U << 16), "ring eviction rate A out of range");
    arena.validate();
}

} // namespace proram
