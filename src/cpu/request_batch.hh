/**
 * @file
 * Fixed-size trace-decode batch for the simulation drive loop. The
 * core decodes up to one batch of records at a time
 * (TraceGenerator::fillBatch), then retires them in a tight loop with
 * per-batch statistics flushes, amortizing the per-record virtual
 * dispatch and counter updates of the one-request-at-a-time loop.
 * Batching is purely a drive-loop mechanism: records retire in the
 * same order with the same per-record semantics, so results are
 * bit-identical for every batch size (pinned by
 * tests/integration/batched_drive_test.cc).
 */

#ifndef PRORAM_CPU_REQUEST_BATCH_HH
#define PRORAM_CPU_REQUEST_BATCH_HH

#include <cstddef>

#include "trace/generator.hh"

namespace proram
{

/** One decode batch: a bounded record buffer refilled in place. */
struct RequestBatch
{
    /** Hard cap on records per refill (buffer size). */
    static constexpr std::size_t kCapacity = 256;
    /** Default refill size; large enough to amortize dispatch,
     *  small enough to stay L1-resident. */
    static constexpr std::size_t kDefaultSize = 64;

    TraceRecord records[kCapacity];
    std::size_t size = 0;
};

} // namespace proram

#endif // PRORAM_CPU_REQUEST_BATCH_HH
