#include "mem/arena.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "obs/trace.hh"
#include "util/annotations.hh"
#include "util/bits.hh"
#include "util/env.hh"
#include "util/logging.hh"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace proram
{

namespace
{

/**
 * Per-lane byte offsets inside one chunk's storage block. The header
 * lane leads so the directory pointer is also the block base; 8-byte
 * alignment holds throughout (headers and payloads are 8-byte, the free
 * lane trails and only needs 4).
 */
struct ChunkLayout
{
    std::uint64_t headerBytes;
    std::uint64_t dataBytes;
    std::uint64_t freeBytes;
    std::uint64_t totalBytes;
};

ChunkLayout
chunkLayout(std::uint64_t chunk_slots, std::uint32_t chunk_buckets)
{
    ChunkLayout l;
    l.headerBytes = chunk_slots * sizeof(SlotHeader);
    l.dataBytes = chunk_slots * sizeof(std::uint64_t);
    l.freeBytes =
        static_cast<std::uint64_t>(chunk_buckets) * sizeof(std::uint32_t);
    l.totalBytes = l.headerBytes + l.dataBytes + l.freeBytes;
    return l;
}

ArenaBackend::Lanes
lanesAt(std::byte *base, const ChunkLayout &l)
{
    ArenaBackend::Lanes lanes;
    lanes.headers = reinterpret_cast<SlotHeader *>(base);
    lanes.data =
        reinterpret_cast<std::uint64_t *>(base + l.headerBytes);
    lanes.free = reinterpret_cast<std::uint32_t *>(
        base + l.headerBytes + l.dataBytes);
    return lanes;
}

const char *
envOrNull(const char *name)
{
    return std::getenv(name);
}

/**
 * Eager backend: one allocation holding every chunk back-to-back
 * (the pre-arena contiguous layout, chunk-major). All chunks are
 * materialized at construction; the payload lane is left
 * uninitialized even here (the "small fix": dummy payloads are never
 * read, so zero-filling 2/3 of the arena bought nothing).
 */
class DenseArena final : public ArenaBackend
{
  public:
    DenseArena(std::uint64_t num_buckets, std::uint32_t z,
               std::uint32_t chunk_buckets)
        : ArenaBackend(num_buckets, z, chunk_buckets),
          layout_(chunkLayout(chunkSlots(), chunkBuckets())),
          storage_(new std::byte[layout_.totalBytes * numChunks()])
    {
        materializeAll();
    }

    const char *name() const override { return "dense"; }

  protected:
    Lanes provideChunk(std::uint64_t chunk) override
    {
        return lanesAt(storage_.get() + chunk * layout_.totalBytes,
                       layout_);
    }

  private:
    ChunkLayout layout_;
    std::unique_ptr<std::byte[]> storage_;
};

/** Demand backend: each chunk is its own heap allocation. */
class SparseArena final : public ArenaBackend
{
  public:
    SparseArena(std::uint64_t num_buckets, std::uint32_t z,
                std::uint32_t chunk_buckets)
        : ArenaBackend(num_buckets, z, chunk_buckets),
          layout_(chunkLayout(chunkSlots(), chunkBuckets())),
          storage_(numChunks())
    {
    }

    const char *name() const override { return "sparse"; }

  protected:
    /**
     * First write into an implicit chunk, reached from tryPlace /
     * write-back. The allocation is
     * deliberate hot-path work: its trigger is the public heap node
     * index the server already observes (file comment / DESIGN.md
     * Sec. 12), it happens at most once per chunk, and the
     * alternative - eager allocation - is exactly the dense backend.
     */
    PRORAM_HOT Lanes provideChunk(std::uint64_t chunk) override
    {
        // PRORAM_LINT_ALLOW(hot-alloc): once-per-chunk demand
        // materialization keyed on a public tree coordinate
        storage_[chunk].reset(new std::byte[layout_.totalBytes]);
        return lanesAt(storage_[chunk].get(), layout_);
    }

  private:
    ChunkLayout layout_;
    std::vector<std::unique_ptr<std::byte[]>> storage_;
};

#if defined(__linux__)

/**
 * Reserved-mapping backend: the whole arena is one MAP_NORESERVE
 * mapping (anonymous, or MAP_SHARED on a backing file), so untouched
 * chunks cost address space but no memory; materialization writes the
 * chunk's header/free lanes, committing only those pages.
 */
class MmapArena final : public ArenaBackend
{
  public:
    MmapArena(std::uint64_t num_buckets, std::uint32_t z,
              std::uint32_t chunk_buckets, const std::string &path,
              bool huge_pages)
        : ArenaBackend(num_buckets, z, chunk_buckets),
          layout_(chunkLayout(chunkSlots(), chunkBuckets())),
          mapBytes_(layout_.totalBytes * numChunks())
    {
        int flags = MAP_NORESERVE;
        if (path.empty()) {
            flags |= MAP_PRIVATE | MAP_ANONYMOUS;
        } else {
            fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
            fatal_if(fd_ < 0, "arena mmap backend: cannot open '",
                     path, "': ", std::strerror(errno));
            fatal_if(::ftruncate(fd_,
                                 static_cast<off_t>(mapBytes_)) != 0,
                     "arena mmap backend: cannot size '", path,
                     "' to ", mapBytes_, " bytes: ",
                     std::strerror(errno));
            flags |= MAP_SHARED;
        }
        void *m = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                         flags, fd_, 0);
        if (m == MAP_FAILED) {
            const int err = errno;
            closeFd();
            fatal("arena mmap backend: mmap of ", mapBytes_,
                  " bytes failed: ", std::strerror(err));
        }
        map_ = static_cast<std::byte *>(m);
        if (huge_pages) {
            // Advisory only: not every kernel/filesystem combination
            // supports THP here, so a refusal is not an error.
            if (::madvise(map_, mapBytes_, MADV_HUGEPAGE) != 0)
                warn("arena mmap backend: MADV_HUGEPAGE refused: ",
                     std::strerror(errno));
        }
    }

    ~MmapArena() override
    {
        if (map_ != nullptr)
            ::munmap(map_, mapBytes_);
        closeFd();
    }

    const char *name() const override { return "mmap"; }

  protected:
    Lanes provideChunk(std::uint64_t chunk) override
    {
        return lanesAt(map_ + chunk * layout_.totalBytes, layout_);
    }

  private:
    void closeFd()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ChunkLayout layout_;
    std::uint64_t mapBytes_;
    std::byte *map_ = nullptr;
    int fd_ = -1;
};

#endif // __linux__

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
    case ArenaKind::Mmap:
        return "mmap";
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
    if (name == "mmap")
        return ArenaKind::Mmap;
    fatal("PRORAM_ARENA: unknown backend '", name,
          "' (expected dense, sparse or mmap)");
}

ArenaOptions
ArenaOptions::resolved() const
{
    ArenaOptions r = *this;
    if (r.kind == ArenaKind::Default) {
        const char *env = envOrNull("PRORAM_ARENA");
        r.kind = env != nullptr ? parseArenaKind(env)
                                : ArenaKind::Dense;
    }
    if (r.chunkBuckets == 0) {
        r.chunkBuckets = static_cast<std::uint32_t>(
            envKnob("PRORAM_ARENA_CHUNK",
                    ArenaBackend::kDefaultChunkBuckets, 1, 1ULL << 20));
    }
    if (r.kind == ArenaKind::Mmap && r.mmapPath.empty()) {
        const char *env = envOrNull("PRORAM_ARENA_FILE");
        if (env != nullptr)
            r.mmapPath = env;
    }
    if (!r.hugePages) {
        const char *env = envOrNull("PRORAM_ARENA_HUGE");
        r.hugePages = env != nullptr && env[0] == '1';
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
    fatal_if(!mmapPath.empty() && kind != ArenaKind::Mmap &&
                 kind != ArenaKind::Default,
             "arena mmapPath set but backend is ",
             arenaKindName(kind));
}

ArenaBackend::ArenaBackend(std::uint64_t num_buckets, std::uint32_t z,
                           std::uint32_t chunk_buckets)
    : numBuckets_(num_buckets), z_(z), chunkBuckets_(chunk_buckets)
{
    panic_if(chunk_buckets == 0 || !isPowerOf2(chunk_buckets),
             "arena chunk size must be a power of two");
    chunkShift_ = log2Floor(chunk_buckets);
    numChunks_ = (num_buckets + chunk_buckets - 1) / chunk_buckets;
    chunkBytes_ = chunkLayout(chunkSlots(), chunkBuckets_).totalBytes;
    chunks_ = std::make_unique<Lanes[]>(numChunks_);
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
    const Lanes fresh = provideChunk(chunk);
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
    switch (r.kind) {
    case ArenaKind::Dense:
        return std::make_unique<DenseArena>(num_buckets, z,
                                            r.chunkBuckets);
    case ArenaKind::Sparse:
        return std::make_unique<SparseArena>(num_buckets, z,
                                             r.chunkBuckets);
    case ArenaKind::Mmap:
#if defined(__linux__)
        return std::make_unique<MmapArena>(num_buckets, z,
                                           r.chunkBuckets, r.mmapPath,
                                           r.hugePages);
#else
        fatal("arena mmap backend is only available on Linux");
#endif
    case ArenaKind::Default:
        break;
    }
    panic("unresolved arena kind");
}

} // namespace proram
