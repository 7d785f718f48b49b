/**
 * @file
 * Whole-ORAM invariant checker used by the test suite (never on the
 * simulated critical path): validates the Path ORAM invariant, copy
 * uniqueness, and super-block co-location after arbitrary access
 * sequences.
 */

#ifndef PRORAM_ORAM_INTEGRITY_HH
#define PRORAM_ORAM_INTEGRITY_HH

#include <string>
#include <vector>

#include "oram/unified_oram.hh"

namespace proram
{

/** Result of one integrity sweep. */
struct IntegrityReport
{
    bool ok = true;
    std::vector<std::string> violations;

    void fail(std::string msg)
    {
        ok = false;
        violations.push_back(std::move(msg));
    }
};

/**
 * Check every invariant the paper's correctness rests on:
 *  1. every block exists exactly once (stash xor tree);
 *  2. a tree-resident block sits on the path its leaf maps to, and
 *     its slot header carries that same leaf;
 *  3. super blocks are aligned, power-of-two sized, size-consistent
 *     and co-mapped to a single leaf (Sec. 3.2);
 *  4. position-map blocks never belong to super blocks;
 *  5. every leaf label is within range.
 */
IntegrityReport checkIntegrity(const UnifiedOram &oram);

} // namespace proram

#endif // PRORAM_ORAM_INTEGRITY_HH
