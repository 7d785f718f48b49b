/**
 * @file
 * Lock-free event tracer emitting Chrome trace_event JSON
 * (chrome://tracing / Perfetto "JSON trace" format).
 *
 * Design constraints, in order:
 *  1. Zero cost when compiled out: -DPRORAM_TRACING=OFF turns every
 *     macro into nothing, so simulation binaries carry no trace code.
 *  2. Near-zero cost when compiled in but idle: each macro is one
 *     relaxed atomic load + branch (the `BM_TraceOverhead` micro
 *     bench holds this to <=2% of the drive loop).
 *  3. Lock-free when recording: events are claimed with one
 *     fetch_add on the ring cursor, so the parallel grid runner's
 *     workers trace concurrently without serializing the simulation.
 *
 * The ring keeps the most recent `capacity` events; older events are
 * overwritten and counted as dropped. Event and category names must
 * be string literals (or otherwise outlive the sink) - the ring
 * stores pointers, never copies.
 *
 * Never instrument per-slot inner loops (eviction classify, lane
 * scans): trace at layer boundaries - request decode, PLB hit/miss,
 * position-map walk, path read/write, eviction classify/scatter,
 * DRAM transfer, dummy accesses, merge/break decisions.
 */

#ifndef PRORAM_OBS_TRACE_HH
#define PRORAM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#ifndef PRORAM_TRACE_ENABLED
#define PRORAM_TRACE_ENABLED 1
#endif

namespace proram::obs
{

namespace detail
{
/** The tracer's on/off switch. An inline variable (not a function-
 *  local static) so TraceSink::enabled() compiles down to one
 *  relaxed load at every macro site - no cross-TU call, no static
 *  guard. Constant-initialized, so it is ready before any dynamic
 *  initializer (the env session included) runs. */
inline std::atomic<bool> traceEnabled{false};
} // namespace detail

/** One recorded event (Chrome phases: X = complete, i = instant). */
struct TraceEvent
{
    const char *cat = nullptr;     ///< category (string literal)
    const char *name = nullptr;    ///< event name (string literal)
    const char *argName = nullptr; ///< optional arg key, or nullptr
    std::uint64_t arg = 0;         ///< arg value (when argName set)
    std::uint64_t tsNs = 0;        ///< start, ns since sink epoch
    std::uint64_t durNs = 0;       ///< duration (phase X only)
    std::uint32_t tid = 0;         ///< recording thread (hashed id)
    char phase = 'i';              ///< 'X' or 'i'
};

/**
 * The global trace sink. All recording goes through instance();
 * construction order is safe because instance() is a function-local
 * static. Enable/disable at runtime with setEnabled(); events
 * recorded while disabled are never observed because the macros skip
 * the call entirely.
 */
class TraceSink
{
  public:
    static TraceSink &instance();

    /** Fast path for the macros: is recording on at all? */
    static bool enabled()
    {
        return detail::traceEnabled.load(std::memory_order_relaxed);
    }

    static void setEnabled(bool on)
    {
        detail::traceEnabled.store(on, std::memory_order_relaxed);
    }

    /** Largest ring $PRORAM_TRACE_BUFFER may ask for, in events. */
    static constexpr std::uint64_t kMaxEnvEvents = 1ULL << 24;

    /** Resize the ring (drops recorded events). Not thread-safe:
     *  call while no recorders are active. Rounded up to a power of
     *  two; minimum 1024 events. */
    void setCapacity(std::size_t events);

    /** Drop all recorded events and reset the dropped counter. */
    void clear();

    /** Record one event (called by the macros, post enabled check). */
    void record(const char *cat, const char *name, char phase,
                std::uint64_t ts_ns, std::uint64_t dur_ns,
                const char *arg_name, std::uint64_t arg);

    /** ns since the sink's epoch (first instance() call). */
    std::uint64_t nowNs() const;

    /** Events currently held (<= capacity). */
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /** Events overwritten because the ring wrapped. */
    std::uint64_t dropped() const;

    /** Per-category event counts since the last clear(): the
     *  "per-phase counters" fed into the metrics registry. Counts
     *  survive ring wrap (they are not ring-resident). */
    std::vector<std::pair<std::string, std::uint64_t>>
    categoryCounts() const;

    /**
     * Serialize held events as a Chrome trace_event JSON object
     * ({"traceEvents": [...], ...}), oldest first. Call with
     * recording disabled or quiesced; as a belt-and-braces measure
     * the dump also skips any slot whose seqlock word shows a write
     * in progress or a generation change mid-read.
     */
    void writeJson(std::ostream &os) const;
    std::string json() const;

    /** Write json() to @p path; warns (does not throw) on I/O
     *  failure. */
    void writeJsonFile(const std::string &path) const;

  private:
    TraceSink();

    /** Category slot registry for categoryCounts(); small and
     *  append-only (categories are a fixed set of literals). */
    std::size_t categorySlot(const char *cat);

    /** One ring slot guarded by a seqlock word: even = stable
     *  generation, odd = a writer owns the payload. Writers acquire
     *  exclusivity with a single CAS; a full-lap collision (two
     *  tickets `capacity` apart racing for the same slot) makes the
     *  loser drop its payload write rather than tear the event. See
     *  the memory-order notes above record() in trace.cc. */
    struct Slot
    {
        std::atomic<std::uint64_t> seq{0};
        TraceEvent ev;
    };

    std::unique_ptr<Slot[]> ring_;
    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::atomic<std::uint64_t> next_{0};
    std::uint64_t epochNs_ = 0;

    static constexpr std::size_t kMaxCategories = 32;
    std::atomic<const char *> catNames_[kMaxCategories];
    std::atomic<std::uint64_t> catCounts_[kMaxCategories];
};

/** RAII scope -> one 'X' (complete) event on destruction. */
class TraceScope
{
  public:
    TraceScope(const char *cat, const char *name)
        : TraceScope(cat, name, nullptr, 0)
    {
    }

    TraceScope(const char *cat, const char *name, const char *arg_name,
               std::uint64_t arg)
    {
        if (!TraceSink::enabled())
            return;
        cat_ = cat;
        name_ = name;
        argName_ = arg_name;
        arg_ = arg;
        startNs_ = TraceSink::instance().nowNs();
        active_ = true;
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Set/refresh the scope's arg after construction (e.g. a result
     *  computed inside the scope, like a walk's recursion depth). */
    void setArg(const char *arg_name, std::uint64_t arg)
    {
        argName_ = arg_name;
        arg_ = arg;
    }

    ~TraceScope()
    {
        if (!active_)
            return;
        TraceSink &sink = TraceSink::instance();
        const std::uint64_t end = sink.nowNs();
        sink.record(cat_, name_, 'X', startNs_, end - startNs_,
                    argName_, arg_);
    }

  private:
    const char *cat_ = nullptr;
    const char *name_ = nullptr;
    const char *argName_ = nullptr;
    std::uint64_t arg_ = 0;
    std::uint64_t startNs_ = 0;
    bool active_ = false;
};

/** Instant event helper (the macro body when tracing is enabled). */
inline void
traceInstant(const char *cat, const char *name, const char *arg_name,
             std::uint64_t arg)
{
    if (!TraceSink::enabled())
        return;
    TraceSink &sink = TraceSink::instance();
    sink.record(cat, name, 'i', sink.nowNs(), 0, arg_name, arg);
}

/** Normalize a trace argument to the ring's u64 payload slot:
 *  unwraps the strong domain types (util/types.hh), casts plain
 *  integrals and enums. */
template <typename T>
constexpr std::uint64_t
traceArg(T v)
{
    if constexpr (requires { v.value(); })
        return static_cast<std::uint64_t>(v.value());
    else
        return static_cast<std::uint64_t>(v);
}

} // namespace proram::obs

#if PRORAM_TRACE_ENABLED

#define PRORAM_TRACE_CAT_(a, b) a##b
#define PRORAM_TRACE_CAT(a, b) PRORAM_TRACE_CAT_(a, b)

/** Time the enclosing scope as one Chrome 'X' event. */
#define PRORAM_TRACE_SCOPE(cat, name)                                    \
    ::proram::obs::TraceScope PRORAM_TRACE_CAT(proram_trace_scope_,      \
                                               __LINE__)(cat, name)

/** Same, with one named integer argument. */
#define PRORAM_TRACE_SCOPE_ARG(cat, name, arg_name, arg)                 \
    ::proram::obs::TraceScope PRORAM_TRACE_CAT(proram_trace_scope_,      \
                                               __LINE__)(               \
        cat, name, arg_name,                                            \
        ::proram::obs::traceArg(arg))

/** One instant ('i') event with a named integer argument. */
#define PRORAM_TRACE_EVENT(cat, name, arg_name, arg)                     \
    ::proram::obs::traceInstant(cat, name, arg_name,                     \
                                ::proram::obs::traceArg(arg))

#else // !PRORAM_TRACE_ENABLED

#define PRORAM_TRACE_SCOPE(cat, name)                                    \
    do {                                                                 \
    } while (0)
#define PRORAM_TRACE_SCOPE_ARG(cat, name, arg_name, arg)                 \
    do {                                                                 \
    } while (0)
#define PRORAM_TRACE_EVENT(cat, name, arg_name, arg)                     \
    do {                                                                 \
    } while (0)

#endif // PRORAM_TRACE_ENABLED

#endif // PRORAM_OBS_TRACE_HH
