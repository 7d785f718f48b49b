/**
 * @file
 * Pluggable storage backends for the Path ORAM slot arena
 * (DESIGN.md Sec. 12).
 *
 * The tree's header/payload/free-count lanes are split into
 * fixed-size *chunks* of consecutive heap-order buckets (a power of
 * two, default sized so one chunk's lanes span a small number of
 * pages). Each slot's 8-byte header holds the block id and its leaf
 * label, as Path ORAM stores them beside every block in the tree, so
 * moving a block into the stash needs no position-map lookup. A chunk
 * that has never been written does not exist: it reads as all-dummy
 * (every header all-ones, occupancy 0) without touching any memory,
 * so a 2^26-block tree costs only its touched fraction. The two
 * backends differ only in where a chunk's bytes come from:
 *
 *  - Dense: one slab holding every chunk back to back, allocated and
 *    materialized at construction (the pre-arena contiguous layout;
 *    the default, keeping the hot scans globally contiguous).
 *  - Sparse: each chunk is its own new[] allocation, made on the
 *    chunk's first write, so untouched subtrees cost no memory.
 *
 * Each tree owns its arena and is driven by one thread (host
 * parallelism lives at the experiment-grid level, where every cell
 * builds its own System), so the chunk directory is a plain array: a
 * null header-lane pointer means the chunk is implicit all-dummy. The
 * materialization coordinate is the *public* heap node index - the
 * same value the simulated server observes for every bucket touched -
 * so demand materialization leaks nothing beyond the access pattern
 * Path ORAM already publishes (DESIGN.md Sec. 12).
 *
 * Selection: OramConfig::arena, or the PRORAM_ARENA /
 * PRORAM_ARENA_CHUNK environment variables when the config leaves
 * the default (EXPERIMENTS.md).
 */

#ifndef PRORAM_MEM_ARENA_HH
#define PRORAM_MEM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/types.hh"

namespace proram
{

/**
 * One tree slot's header: the resident block's id and its leaf label
 * (the position-map leaf it was placed under). A dummy slot is
 * all-ones in both words. The 32-bit id bounds a tree to fewer than
 * 2^32 - 1 blocks (kMaxBlocks; BlockSpace enforces it) - the all-ones
 * id is the dummy marker. Two 32-bit words fit the 8 bytes a 64-bit
 * id would take, so carrying the leaf costs no lane bytes.
 */
struct SlotHeader
{
    static constexpr std::uint32_t kDummyWord = 0xFFFFFFFFu;
    /** Exclusive bound on block ids a header can name. */
    static constexpr std::uint64_t kMaxBlocks = kDummyWord;

    std::uint32_t id = kDummyWord;
    std::uint32_t leaf = kDummyWord;

    /** The all-ones dummy header. */
    SlotHeader() = default;
    /** Header of real block @p block (id below kMaxBlocks) on
     *  @p label. */
    SlotHeader(BlockId block, Leaf label)
        : id(static_cast<std::uint32_t>(block.value())),
          leaf(label.value())
    {
    }

    bool isDummy() const { return id == kDummyWord; }
    /** The block id, or kInvalidBlock for a dummy slot. */
    BlockId blockId() const
    {
        return isDummy() ? kInvalidBlock : BlockId{id};
    }
    /** The leaf label, or kInvalidLeaf for a dummy slot. */
    Leaf leafLabel() const { return Leaf{leaf}; }
};

static_assert(sizeof(SlotHeader) == 8,
              "the slot header must keep the 8-byte lane stride");

/** Which slot-arena storage backend backs the tree. */
enum class ArenaKind : std::uint8_t
{
    Default, ///< resolve from $PRORAM_ARENA, falling back to Dense
    Dense,   ///< eager contiguous lanes (pre-arena layout)
    Sparse,  ///< chunks heap-allocated on first write
};

/** Printable backend name ("dense" / "sparse"). */
const char *arenaKindName(ArenaKind kind);

/** Parse a PRORAM_ARENA value; throws SimFatal on unknown names. */
ArenaKind parseArenaKind(const std::string &name);

/** User-facing arena selection, embedded in OramConfig. */
struct ArenaOptions
{
    ArenaKind kind = ArenaKind::Default;
    /**
     * Buckets per chunk (power of two). 0 = $PRORAM_ARENA_CHUNK or
     * the built-in default (kDefaultChunkBuckets).
     */
    std::uint32_t chunkBuckets = 0;

    /**
     * The options a tree will actually run with: every defaulted
     * field replaced by its environment override or built-in value.
     */
    ArenaOptions resolved() const;

    /** Throws SimFatal on a bad chunk size (not a power of two). */
    void validate() const;
};

/**
 * Chunked slot-arena storage: the chunk directory, the all-dummy fill
 * and the materialization counters, over either backend's chunk bytes
 * (file comment).
 */
class ArenaBackend
{
  public:
    /** Default chunk geometry: 256 buckets = 10 KiB of header lane + free
     *  lane + payload at Z=3, a small number of 4 KiB pages. */
    static constexpr std::uint32_t kDefaultChunkBuckets = 256;

    /** Build the backend selected by @p opts (after resolved()) for a
     *  tree of @p num_buckets buckets of @p z slots each. */
    static std::unique_ptr<ArenaBackend>
    make(const ArenaOptions &opts, std::uint64_t num_buckets,
         std::uint32_t z);

    /** @p kind is Dense or Sparse; @p chunk_buckets a power of two. */
    ArenaBackend(ArenaKind kind, std::uint64_t num_buckets,
                 std::uint32_t z, std::uint32_t chunk_buckets);
    ~ArenaBackend();

    ArenaBackend(const ArenaBackend &) = delete;
    ArenaBackend &operator=(const ArenaBackend &) = delete;

    /** Lane pointers for one materialized chunk (slot i of the
     *  chunk's bucket c lives at index c*z+i of headers/data). */
    struct Lanes
    {
        SlotHeader *headers = nullptr;
        std::uint64_t *data = nullptr;
        std::uint32_t *free = nullptr;
    };

    /** Read-only lane pointers; all null while the chunk is
     *  implicit (all-dummy). */
    struct View
    {
        const SlotHeader *headers = nullptr;
        const std::uint64_t *data = nullptr;
        const std::uint32_t *free = nullptr;
    };

    /** @name Geometry. @{ */
    std::uint64_t numBuckets() const { return numBuckets_; }
    std::uint32_t z() const { return z_; }
    std::uint32_t chunkBuckets() const { return chunkBuckets_; }
    std::uint32_t chunkShift() const { return chunkShift_; }
    std::uint64_t numChunks() const { return numChunks_; }
    /** Footprint of one chunk's three lanes, in bytes. */
    std::uint64_t chunkBytes() const { return chunkBytes_; }
    /** @} */

    /** "dense" or "sparse". */
    const char *name() const { return slab_ ? "dense" : "sparse"; }

    /**
     * Read access to chunk @p chunk. Null pointers mean the chunk is
     * still implicit: every slot header reads dummy, every
     * bucket has z() free slots, payloads read 0. Never materializes
     * (reads must stay O(0) memory - see BinaryTree).
     */
    View view(std::uint64_t chunk) const
    {
        const Lanes &c = chunks_[chunk];
        return View{c.headers, c.data, c.free};
    }

    /** Writable lanes of chunk @p chunk, or all-null if implicit. */
    Lanes lanes(std::uint64_t chunk) { return chunks_[chunk]; }

    /**
     * Materialize chunk @p chunk (idempotent): allocate
     * its lanes, fill the header lane with dummy headers and the
     * free lane with z (the payload lane is left unwritten - dummy
     * payloads are never read), publish, count. The argument is a
     * public tree coordinate; see the file comment.
     */
    Lanes materialize(std::uint64_t chunk);

    bool materialized(std::uint64_t chunk) const
    {
        return chunks_[chunk].headers != nullptr;
    }

    /** @name Telemetry (PR-4 metrics registry / `arena` traces). @{ */
    std::uint64_t chunksMaterialized() const
    {
        return chunksMaterialized_;
    }
    /** Lane bytes of materialized chunks (chunkBytes granularity). */
    std::uint64_t bytesResident() const
    {
        return chunksMaterialized() * chunkBytes_;
    }
    /** Lane bytes if every chunk were materialized (dense cost). */
    std::uint64_t bytesTotal() const
    {
        return numChunks_ * chunkBytes_;
    }
    /** @} */

  private:
    /** Raw (uninitialized) bytes for chunk @p chunk: a slice of the
     *  dense slab, or a fresh sparse allocation. Called once per
     *  chunk. */
    std::byte *chunkStorage(std::uint64_t chunk);

    Lanes materializeChunk(std::uint64_t chunk, bool trace);

    /** Dense construction path: materialize every chunk without
     *  per-chunk trace events. */
    void materializeAll();

    /** Slots per chunk (chunkBuckets * z), for lane sizing. */
    std::uint64_t chunkSlots() const
    {
        return static_cast<std::uint64_t>(chunkBuckets_) * z_;
    }

    std::uint64_t numBuckets_;
    std::uint32_t z_;
    std::uint32_t chunkBuckets_;
    std::uint32_t chunkShift_;
    std::uint64_t numChunks_;
    std::uint64_t chunkBytes_;
    /** The chunk directory: all-null lanes while a chunk is implicit. */
    std::unique_ptr<Lanes[]> chunks_;
    std::uint64_t chunksMaterialized_ = 0;
    /** Dense: every chunk's bytes, chunk-major; null when sparse. */
    std::unique_ptr<std::byte[]> slab_;
    /** Sparse: one allocation per materialized chunk. */
    std::vector<std::unique_ptr<std::byte[]>> sparseChunks_;
};

} // namespace proram

#endif // PRORAM_MEM_ARENA_HH
