/**
 * @file
 * Scheme-interface conformance (DESIGN.md §14): every OramScheme
 * implementation must satisfy the same controller-visible contract.
 * The grid drives both protocols through the controller's serial
 * queue drain (System::runQueue) under the baseline and dynamic
 * policies, and requires trace-order payload semantics plus the
 * structural invariants afterwards. The schemes legitimately differ
 * in path counts and timing; they must NOT differ in what a request
 * observes. The QueueDrain tests cover the drain itself: a longer
 * trace per policy, and the sparse lazily-created arena against the
 * eager dense one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/request_batch.hh"
#include "oram/integrity.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "util/logging.hh"

namespace proram
{
namespace
{

constexpr std::uint32_t kLineBytes = 128;

/** Deterministic xorshift trace over @p footprint_blocks data blocks. */
std::vector<TraceRecord>
makeTrace(std::size_t n, std::uint64_t footprint_blocks,
          std::uint64_t seed)
{
    std::vector<TraceRecord> records;
    records.reserve(n);
    std::uint64_t x = seed | 1;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        TraceRecord rec;
        rec.addr = (x % footprint_blocks) * kLineBytes;
        rec.op = (x >> 32) % 4 == 0 ? OpType::Write : OpType::Read;
        records.push_back(rec);
    }
    return records;
}

SystemConfig
smallConfig(SchemeKind kind)
{
    SystemConfig cfg = defaultSystemConfig();
    cfg.oram.numDataBlocks = 1ULL << 12;
    cfg.oram.scheme = kind;
    return cfg;
}

/** Trace-order payload model: what every read/write must observe. */
std::vector<std::uint64_t>
expectedPayloads(const std::vector<TraceRecord> &records)
{
    std::vector<std::uint64_t> last(1ULL << 12, 0);
    std::vector<std::uint64_t> expect(records.size(), 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t block = records[i].addr / kLineBytes;
        if (records[i].op == OpType::Write)
            last[block] = (static_cast<std::uint64_t>(i) + 1) *
                          0x9E3779B97F4A7C15ULL;
        expect[i] = last[block];
    }
    return expect;
}

void
expectIntact(System &sys, const std::string &label)
{
    ASSERT_NE(sys.controller(), nullptr);
    const auto report = checkIntegrity(sys.controller()->oram());
    EXPECT_TRUE(report.ok)
        << label << ": " << report.violations.size()
        << " violations, first: "
        << (report.violations.empty() ? "" : report.violations.front());
}

class SchemeConformance
    : public ::testing::TestWithParam<std::tuple<SchemeKind, MemScheme>>
{
};

TEST_P(SchemeConformance, PayloadsMatchTraceOrderAndTreeStaysIntact)
{
    const auto [kind, policy] = GetParam();
    const std::vector<TraceRecord> records =
        makeTrace(1200, 1ULL << 12, 0x5C4E3E);

    SystemConfig cfg = smallConfig(kind);
    cfg.scheme = policy;
    System sys(cfg);
    std::vector<std::uint64_t> payloads;
    const SimResult res = sys.runQueue(records, &payloads);

    EXPECT_EQ(res.references, records.size());
    EXPECT_GT(res.cycles, Cycles{0});
    EXPECT_EQ(payloads, expectedPayloads(records));
    expectIntact(sys, std::string(schemeKindName(kind)) + "_" +
                          schemeName(policy));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeConformance,
    ::testing::Combine(::testing::Values(SchemeKind::Path,
                                         SchemeKind::Ring),
                       ::testing::Values(MemScheme::OramBaseline,
                                         MemScheme::OramDynamic)),
    [](const auto &info) {
        return std::string(schemeKindName(std::get<0>(info.param))) +
               "_" + schemeName(std::get<1>(info.param));
    });

TEST(SchemeConformance, SchemesObserveIdenticalPayloads)
{
    // The protocol choice is invisible to the memory semantics: the
    // same trace must read back the same values under either scheme.
    const std::vector<TraceRecord> records =
        makeTrace(1500, 1ULL << 12, 0xFEED5);
    const std::vector<std::uint64_t> expect = expectedPayloads(records);

    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramBaseline;
        System sys(cfg);
        std::vector<std::uint64_t> payloads;
        sys.runQueue(records, &payloads);
        EXPECT_EQ(payloads, expect) << schemeKindName(kind);
    }
}

TEST(SchemeConformance, AuditedRunPassesOnBothSchemes)
{
    // System panics at end-of-run on an audit failure, so a clean
    // return proves the leaf-uniformity checks (and, for Ring, the
    // deterministic-eviction accounting check) held.
    const std::vector<TraceRecord> records =
        makeTrace(1200, 1ULL << 12, 0xAD17ED);
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramDynamic;
        cfg.audit.enabled = true;
        System sys(cfg);
        const SimResult res = sys.runQueue(records, nullptr);
        EXPECT_EQ(res.references, records.size());
        ASSERT_NE(sys.auditor(), nullptr);
        const obs::AuditReport rep = sys.auditor()->report();
        EXPECT_TRUE(rep.pass()) << schemeKindName(kind) << "\n"
                                << rep.summary();
        if (kind == SchemeKind::Ring) {
            // The Ring run must actually exercise the schedule check.
            EXPECT_GT(sys.auditor()->evictionPaths(), 0u);
        } else {
            EXPECT_EQ(sys.auditor()->evictionPaths(), 0u);
        }
    }
}

TEST(SchemeConformance, RingSurvivesSmallBucketAndBudgetCorners)
{
    // Early-reshuffle stress: Z=1 buckets with the minimum read
    // budget force a reshuffle on nearly every bucket touch, and an
    // eviction every access keeps the tiny buckets from starving the
    // stash. Payload semantics must hold regardless.
    const std::vector<TraceRecord> records =
        makeTrace(800, 1ULL << 12, 0xC0124E5);

    SystemConfig cfg = smallConfig(SchemeKind::Ring);
    cfg.scheme = MemScheme::OramDynamic;
    cfg.oram.z = 1;
    cfg.oram.ringS = 1;
    cfg.oram.ringA = 1;
    cfg.oram.stashCapacity = 400;
    System sys(cfg);
    std::vector<std::uint64_t> payloads;
    sys.runQueue(records, &payloads);
    EXPECT_EQ(payloads, expectedPayloads(records));
    expectIntact(sys, "ring_small_zs");
}

TEST(SchemeConformance, MetricsLabelAndCountersNameTheScheme)
{
    const std::vector<TraceRecord> records =
        makeTrace(400, 1ULL << 12, 0x1ABE1);

    SystemConfig ring = smallConfig(SchemeKind::Ring);
    ring.scheme = MemScheme::OramBaseline;
    System rsys(ring);
    rsys.runQueue(records, nullptr);
    const std::string rjson = rsys.metricsJson();
    EXPECT_NE(rjson.find("\"oramScheme\":\"ring\""), std::string::npos)
        << rjson.substr(0, 200);
    EXPECT_NE(rjson.find("ringBucketReads"), std::string::npos);
    EXPECT_NE(rjson.find("ringEarlyReshuffles"), std::string::npos);

    SystemConfig path = smallConfig(SchemeKind::Path);
    path.scheme = MemScheme::OramBaseline;
    System psys(path);
    psys.runQueue(records, nullptr);
    EXPECT_NE(psys.metricsJson().find("\"oramScheme\":\"path\""),
              std::string::npos);
}

TEST(SchemeConformance, SerialRunMatchesQueueDrainPerScheme)
{
    // run() (trace CPU) and runQueue() drive the same engine; a
    // scheme whose two drive paths disagree would diverge here via
    // the integrity sweep.
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        const std::vector<TraceRecord> records =
            makeTrace(1000, 1ULL << 12, 0x5E71A1);
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramBaseline;
        System sys(cfg);
        std::vector<std::uint64_t> payloads;
        const SimResult res = sys.runQueue(records, &payloads);
        EXPECT_EQ(res.references, records.size());
        EXPECT_EQ(payloads, expectedPayloads(records));
        expectIntact(sys, std::string("serial_") + schemeKindName(kind));
    }
}

/** The sparse arena with lazy block creation on top of @p cfg. */
SystemConfig
sparseLazy(SystemConfig cfg)
{
    cfg.oram.lazyInit = true;
    cfg.oram.arena.kind = ArenaKind::Sparse;
    cfg.oram.arena.chunkBuckets = 16;
    return cfg;
}

/**
 * Materialized-chunk set of @p sys's arena, after checking that the
 * arena's chunk and byte counters agree with it exactly.
 */
std::vector<bool>
materializedChunks(System &sys, const std::string &label)
{
    const ArenaBackend &arena =
        sys.controller()->oram().engine().tree().arena();
    std::vector<bool> chunks(arena.numChunks());
    std::uint64_t seen = 0;
    for (std::uint64_t c = 0; c < arena.numChunks(); ++c) {
        chunks[c] = arena.materialized(c);
        seen += chunks[c] ? 1 : 0;
    }
    EXPECT_EQ(arena.chunksMaterialized(), seen) << label;
    EXPECT_EQ(arena.bytesResident(), seen * arena.chunkBytes()) << label;
    return chunks;
}

class QueueDrain : public ::testing::TestWithParam<MemScheme>
{
};

TEST_P(QueueDrain, PayloadsMatchTraceOrder)
{
    // A longer read-mostly mix through the serial queue drain.
    const MemScheme policy = GetParam();
    const std::vector<TraceRecord> records =
        makeTrace(1500, 1ULL << 12, 0xC0FFEE);

    SystemConfig cfg = smallConfig(SchemeKind::Path);
    cfg.scheme = policy;
    System sys(cfg);
    std::vector<std::uint64_t> payloads;
    const SimResult res = sys.runQueue(records, &payloads);

    EXPECT_EQ(res.references, records.size());
    EXPECT_GT(res.cycles, Cycles{0});
    EXPECT_EQ(payloads, expectedPayloads(records));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QueueDrain,
    ::testing::Values(MemScheme::OramBaseline, MemScheme::OramDynamic),
    [](const auto &info) { return std::string(schemeName(info.param)); });

TEST(QueueDrain, SparseLazyMatchesEagerDense)
{
    // The sparse arena + lazy initialization must be invisible to
    // the drive semantics: the run observes exactly the payloads of
    // the eager dense run, first-touch accounting stays exact, and
    // the invariants hold.
    const std::vector<TraceRecord> records =
        makeTrace(1500, 1ULL << 12, 0xFACADE);
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        const std::string label = schemeKindName(kind);
        SystemConfig cfg = smallConfig(kind);
        cfg.scheme = MemScheme::OramDynamic;

        System dense(cfg);
        std::vector<std::uint64_t> expect;
        dense.runQueue(records, &expect);

        System sys(sparseLazy(cfg));
        std::vector<std::uint64_t> payloads;
        sys.runQueue(records, &payloads);
        EXPECT_EQ(payloads, expect) << label;
        ASSERT_NE(sys.controller(), nullptr);
        const std::vector<bool> chunks = materializedChunks(sys, label);
        EXPECT_NE(std::count(chunks.begin(), chunks.end(), true), 0)
            << label;
        expectIntact(sys, label);
    }
}

TEST(QueueDrain, SparseLazyChunkSetIsDeterministic)
{
    // Same trace, run twice: lazy creation and chunk materialization
    // are functions of the (seeded) access sequence alone, so the
    // materialized-chunk set must repeat exactly.
    const std::vector<TraceRecord> records =
        makeTrace(1000, 1ULL << 12, 0xDECADE);
    for (const SchemeKind kind : {SchemeKind::Path, SchemeKind::Ring}) {
        const std::string label = schemeKindName(kind);
        const auto run = [&] {
            SystemConfig cfg = smallConfig(kind);
            cfg.scheme = MemScheme::OramBaseline;
            System sys(sparseLazy(cfg));
            sys.runQueue(records, nullptr);
            return materializedChunks(sys, label);
        };
        EXPECT_EQ(run(), run()) << label;
    }
}

} // namespace
} // namespace proram
