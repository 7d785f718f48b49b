#include "mem/arena.hh"

#include <cstdlib>
#include <memory>

#include "obs/trace.hh"
#include "util/annotations.hh"
#include "util/bits.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace proram
{

namespace
{

/**
 * Lane pointers into one chunk's storage block of @p chunk_slots
 * slots. The header lane leads so the directory pointer is also the
 * block base; 8-byte alignment holds throughout (headers and payloads
 * are 8-byte, the free lane trails and only needs 4).
 */
ArenaBackend::Lanes
lanesAt(std::byte *base, std::uint64_t chunk_slots)
{
    const std::uint64_t header_bytes = chunk_slots * sizeof(SlotHeader);
    const std::uint64_t data_bytes = chunk_slots * sizeof(std::uint64_t);
    ArenaBackend::Lanes lanes;
    lanes.headers = reinterpret_cast<SlotHeader *>(base);
    lanes.data = reinterpret_cast<std::uint64_t *>(base + header_bytes);
    lanes.free = reinterpret_cast<std::uint32_t *>(base + header_bytes +
                                                   data_bytes);
    return lanes;
}

} // namespace

const char *
arenaKindName(ArenaKind kind)
{
    switch (kind) {
    case ArenaKind::Default:
        return "default";
    case ArenaKind::Dense:
        return "dense";
    case ArenaKind::Sparse:
        return "sparse";
    }
    panic("unreachable arena kind");
}

ArenaKind
parseArenaKind(const std::string &name)
{
    if (name == "dense")
        return ArenaKind::Dense;
    if (name == "sparse")
        return ArenaKind::Sparse;
    fatal("PRORAM_ARENA: unknown backend '", name,
          "' (expected dense or sparse)");
}

ArenaOptions
ArenaOptions::resolved() const
{
    ArenaOptions r = *this;
    if (r.kind == ArenaKind::Default) {
        const char *env = std::getenv("PRORAM_ARENA");
        r.kind = env != nullptr ? parseArenaKind(env)
                                : ArenaKind::Dense;
    }
    if (r.chunkBuckets == 0) {
        r.chunkBuckets = static_cast<std::uint32_t>(
            envKnob("PRORAM_ARENA_CHUNK",
                    ArenaBackend::kDefaultChunkBuckets, 1, 1ULL << 20));
    }
    r.validate();
    return r;
}

void
ArenaOptions::validate() const
{
    fatal_if(chunkBuckets != 0 && !isPowerOf2(chunkBuckets),
             "arena chunk size must be a power of two, got ",
             chunkBuckets);
}

ArenaBackend::ArenaBackend(ArenaKind kind, std::uint64_t num_buckets,
                           std::uint32_t z, std::uint32_t chunk_buckets)
    : numBuckets_(num_buckets), z_(z), chunkBuckets_(chunk_buckets)
{
    panic_if(chunk_buckets == 0 || !isPowerOf2(chunk_buckets),
             "arena chunk size must be a power of two");
    panic_if(kind != ArenaKind::Dense && kind != ArenaKind::Sparse,
             "unresolved arena kind");
    chunkShift_ = log2Floor(chunk_buckets);
    numChunks_ = (num_buckets + chunk_buckets - 1) / chunk_buckets;
    chunkBytes_ = chunkSlots() * (sizeof(SlotHeader) +
                                  sizeof(std::uint64_t)) +
                  static_cast<std::uint64_t>(chunk_buckets) *
                      sizeof(std::uint32_t);
    chunks_ = std::make_unique<Lanes[]>(numChunks_);
    if (kind == ArenaKind::Dense) {
        slab_.reset(new std::byte[chunkBytes_ * numChunks_]);
        materializeAll();
    } else {
        sparseChunks_.resize(numChunks_);
    }
}

ArenaBackend::~ArenaBackend() = default;

ArenaBackend::Lanes
ArenaBackend::materialize(std::uint64_t chunk)
{
    const Lanes existing = lanes(chunk);
    if (existing.headers != nullptr)
        return existing;
    return materializeChunk(chunk, true);
}

ArenaBackend::Lanes
ArenaBackend::materializeChunk(std::uint64_t chunk, bool trace)
{
    const Lanes fresh = lanesAt(chunkStorage(chunk), chunkSlots());
    // All-dummy fill: header lane to the all-ones dummy header, free
    // lane to z. The payload lane stays unwritten -
    // dummy payloads are never read (readPath skips dummy slots and
    // tryPlace overwrites before any real read), and skipping it is
    // what keeps materialization (and the dense constructor) from
    // touching 2/3 of the chunk's pages.
    std::uninitialized_fill_n(fresh.headers, chunkSlots(), SlotHeader{});
    std::uninitialized_fill_n(fresh.free, chunkBuckets_, z_);
    chunks_[chunk] = fresh;
    ++chunksMaterialized_;
    if (trace)
        PRORAM_TRACE_EVENT("arena", "materialize", "chunk", chunk);
    return fresh;
}

/**
 * Sparse allocation is deliberate hot-path work, reached from
 * tryPlace / write-back on a chunk's first write: its trigger is the
 * public heap node index the server already observes (file comment /
 * DESIGN.md Sec. 12), it happens at most once per chunk, and the
 * alternative - eager allocation - is exactly the dense backend.
 */
PRORAM_HOT std::byte *
ArenaBackend::chunkStorage(std::uint64_t chunk)
{
    if (slab_)
        return slab_.get() + chunk * chunkBytes_;
    // PRORAM_LINT_ALLOW(hot-alloc): once-per-chunk demand
    // materialization keyed on a public tree coordinate
    sparseChunks_[chunk].reset(new std::byte[chunkBytes_]);
    return sparseChunks_[chunk].get();
}

void
ArenaBackend::materializeAll()
{
    for (std::uint64_t c = 0; c < numChunks_; ++c)
        materializeChunk(c, false);
    PRORAM_TRACE_EVENT("arena", "materializeAll", "chunks",
                       numChunks_);
}

std::unique_ptr<ArenaBackend>
ArenaBackend::make(const ArenaOptions &opts, std::uint64_t num_buckets,
                   std::uint32_t z)
{
    const ArenaOptions r = opts.resolved();
    return std::make_unique<ArenaBackend>(r.kind, num_buckets, z,
                                          r.chunkBuckets);
}

} // namespace proram
