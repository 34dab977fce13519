/**
 * @file
 * Tests for the experiment harness (miss and perf experiments,
 * normalization, tables, subsets) and for the filter-once perf
 * simulator against the object-hierarchy reference.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/vectors.hh"
#include "sim/experiment.hh"
#include "sim/fastpath/soa_cache.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

SuiteParams
tinySuite()
{
    SuiteParams p;
    p.llcBlocks = 512;
    p.accessesPerSimpoint = 12000;
    p.baseSeed = 7;
    return p;
}

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.system.hier.l1 = {"L1", 4 * 1024, 8, 64};   // 64 blocks
    cfg.system.hier.l2 = {"L2", 8 * 1024, 8, 64};   // 128 blocks
    cfg.system.hier.llc = {"LLC", 32 * 1024, 16, 64}; // 512 blocks
    cfg.threads = 4;
    return cfg;
}

class ExperimentTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // One shared miss experiment across tests (it is the slow
        // part); computed once.
        suite_ = new SyntheticSuite(tinySuite());
        ExperimentConfig cfg = tinyConfig();
        cfg.includeMin = true;
        std::vector<PolicyDef> policies = {
            policyByName("LRU"), policyByName("DRRIP"),
            policyByName("DGIPPR2")};
        result_ = new ExperimentResult(
            runMissExperiment(*suite_, policies, cfg));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        delete suite_;
        result_ = nullptr;
        suite_ = nullptr;
    }

    static SyntheticSuite *suite_;
    static ExperimentResult *result_;
};

SyntheticSuite *ExperimentTest::suite_ = nullptr;
ExperimentResult *ExperimentTest::result_ = nullptr;

TEST_F(ExperimentTest, OneRowPerWorkload)
{
    EXPECT_EQ(result_->rows.size(), suite_->specs().size());
    for (size_t i = 0; i < result_->rows.size(); ++i)
        EXPECT_EQ(result_->rows[i].workload, suite_->specs()[i].name);
}

TEST_F(ExperimentTest, ColumnsIncludeMin)
{
    ASSERT_EQ(result_->columns.size(), 4u);
    EXPECT_EQ(result_->columns.back(), "MIN");
    EXPECT_EQ(result_->columnIndex("DRRIP"), 1u);
    EXPECT_THROW(result_->columnIndex("nope"), std::runtime_error);
}

TEST_F(ExperimentTest, MinNeverExceedsAnyPolicy)
{
    size_t min_col = result_->columnIndex("MIN");
    for (const auto &row : result_->rows) {
        for (size_t c = 0; c < min_col; ++c) {
            EXPECT_LE(row.values[min_col], row.values[c] + 1e-9)
                << row.workload << " vs " << result_->columns[c];
        }
    }
}

TEST_F(ExperimentTest, BaselineNormalizesToOne)
{
    size_t lru = result_->columnIndex("LRU");
    auto norm = result_->normalized(lru, lru, false);
    for (double v : norm)
        EXPECT_NEAR(v, 1.0, 1e-9);
    EXPECT_NEAR(result_->geomeanNormalized(lru, lru, false), 1.0,
                1e-9);
}

TEST_F(ExperimentTest, MpkiValuesAreFinite)
{
    for (const auto &row : result_->rows)
        for (double v : row.values) {
            EXPECT_GE(v, 0.0) << row.workload;
            EXPECT_LT(v, 1000.0) << row.workload;
        }
}

TEST_F(ExperimentTest, MinGeomeanClearlyBelowLru)
{
    size_t lru = result_->columnIndex("LRU");
    size_t min_col = result_->columnIndex("MIN");
    double g = result_->geomeanNormalized(min_col, lru, false);
    EXPECT_LT(g, 0.95);
}

TEST_F(ExperimentTest, NormalizedTableHasGeomeanFooter)
{
    size_t lru = result_->columnIndex("LRU");
    Table t = result_->toNormalizedTable(lru, false, 1);
    EXPECT_EQ(t.rows(), result_->rows.size() + 1);
    EXPECT_EQ(t.cell(t.rows() - 1, 0), "geomean");
}

TEST_F(ExperimentTest, SortColumnOrdersRowsAscending)
{
    size_t lru = result_->columnIndex("LRU");
    size_t drrip = result_->columnIndex("DRRIP");
    Table t = result_->toNormalizedTable(lru, false, drrip);
    double prev = -1.0;
    for (size_t r = 0; r + 1 < t.rows(); ++r) { // skip footer
        double v = std::stod(t.cell(r, 2));     // DRRIP column
        EXPECT_GE(v, prev - 1e-9);
        prev = v;
    }
}

TEST_F(ExperimentTest, SubsetSelectsThrashyWorkloads)
{
    // Workloads where DRRIP beats LRU by >1% in misses: normalized
    // MPKI < 0.99 -> use speedup=false and threshold inverted via
    // the raw interface.
    size_t lru = result_->columnIndex("LRU");
    size_t drrip = result_->columnIndex("DRRIP");
    auto norm = result_->normalized(drrip, lru, false);
    std::vector<size_t> manual;
    for (size_t i = 0; i < norm.size(); ++i)
        if (norm[i] < 0.99)
            manual.push_back(i);
    EXPECT_FALSE(manual.empty());
}

TEST_F(ExperimentTest, RawTableRendersCsv)
{
    Table t = result_->toRawTable();
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("MPKI"), std::string::npos);
}

TEST(PerfExperiment, SpeedupOrderingSanity)
{
    // Small perf experiment on a 6-workload subset: DGIPPR2 must not
    // be slower than LRU overall, and every IPC must be positive.
    SuiteParams sp = tinySuite();
    SyntheticSuite suite(sp);
    ExperimentConfig cfg = tinyConfig();
    std::vector<PolicyDef> policies = {policyByName("LRU"),
                                       policyByName("DGIPPR2")};
    ExperimentResult r = runPerfExperiment(suite, policies, cfg);
    size_t lru = r.columnIndex("LRU");
    size_t dg = r.columnIndex("2-DGIPPR");
    for (const auto &row : r.rows)
        for (double v : row.values)
            EXPECT_GT(v, 0.0) << row.workload;
    double g = r.geomeanNormalized(dg, lru, true);
    EXPECT_GT(g, 0.99);
}

TEST(PerfExperiment, PerWorkloadPoliciesRun)
{
    SuiteParams sp = tinySuite();
    sp.accessesPerSimpoint = 4000;
    SyntheticSuite suite(sp);
    ExperimentConfig cfg = tinyConfig();
    auto policies_for = [](const std::string &workload) {
        // Trivial per-workload selection: everyone gets LRU + PLRU,
        // proving the plumbing works.
        (void)workload;
        return std::vector<PolicyDef>{policyByName("LRU"),
                                      policyByName("PLRU")};
    };
    ExperimentResult r = runPerfExperimentPerWorkload(
        suite, {"LRU", "PLRU"}, policies_for, cfg);
    EXPECT_EQ(r.rows.size(), suite.specs().size());
    for (const auto &row : r.rows)
        EXPECT_EQ(row.values.size(), 2u);
}

// ---- PerfSplit: simulateWorkloadPolicies vs simulateWorkload -------

/** Paper-shaped L1/L2 (scaled down) over a 64-set LLC of @p ways. */
SystemParams
splitSystem(unsigned ways, double warmup_fraction)
{
    SystemParams sys;
    sys.hier.l1 = {"L1", 4 * 1024, 8, 64};  // 64 blocks
    sys.hier.l2 = {"L2", 8 * 1024, 8, 64};  // 128 blocks
    sys.hier.llc = {"LLC", 64ull * ways * 64, ways, 64};
    sys.warmupFraction = warmup_fraction;
    return sys;
}

/** @p shipped as is at 16 ways, else seeded random vectors. */
std::vector<Ipv>
vectorsFor(unsigned ways, std::vector<Ipv> shipped, Rng &rng)
{
    if (ways == 16)
        return shipped;
    for (Ipv &v : shipped) {
        std::vector<uint8_t> entries(ways + 1);
        for (uint8_t &e : entries)
            e = static_cast<uint8_t>(rng.nextBounded(ways));
        v = Ipv(std::move(entries));
    }
    return shipped;
}

/**
 * The packed-model policies (LRU, PLRU, GIPPR, 2-/4-DGIPPR) and the
 * scalar ones (DRRIP, PDP, and SHiP, which reads the pc) at @p ways.
 */
std::vector<PolicyDef>
splitPolicies(unsigned ways)
{
    Rng rng(ways);
    return {lruDef(),
            plruDef(),
            gipprDef("GIPPR",
                     vectorsFor(ways, {local_vectors::gippr()}, rng)[0]),
            dgipprDef("2-DGIPPR",
                      vectorsFor(ways, local_vectors::dgippr2(), rng)),
            dgipprDef("4-DGIPPR",
                      vectorsFor(ways, local_vectors::dgippr4(), rng)),
            drripDef(),
            pdpDef(),
            shipDef()};
}

/**
 * Two weighted simpoints of random references over ~1500 blocks, a
 * third of them stores.  Every fifth store has pc 0: as a demand
 * store it must stay a Store, not read as an L2 writeback.
 */
Workload
pcZeroStoreWorkload()
{
    Workload w("pc0-stores");
    Rng rng(0x5711);
    for (const double weight : {0.7, 0.3}) {
        auto trace = std::make_shared<Trace>();
        for (int i = 0; i < 20000; ++i) {
            MemRecord r;
            r.instGap = static_cast<uint32_t>(1 + rng.nextBounded(6));
            r.addr = rng.nextBounded(1500) * 64 + rng.nextBounded(64);
            r.isWrite = rng.nextBounded(3) == 0;
            r.pc = r.isWrite && rng.nextBounded(5) == 0
                       ? 0
                       : 0x400000 + 4 * rng.nextBounded(32);
            trace->append(r);
        }
        w.addSimpoint(std::move(trace), weight);
    }
    return w;
}

/** Three suite workloads plus the pc-0 store stream. */
std::vector<Workload>
splitWorkloads()
{
    const SyntheticSuite suite(tinySuite());
    std::vector<Workload> out;
    for (size_t i = 0; i < 3; ++i)
        out.push_back(SyntheticSuite::materialize(
            suite.specs()[i * suite.specs().size() / 3]));
    out.push_back(pcZeroStoreWorkload());
    return out;
}

/** Every policy's split result equals simulateWorkload's, bit for bit. */
void
expectSplitMatchesReference(const Workload &workload,
                            const std::vector<PolicyDef> &policies,
                            const SystemParams &sys)
{
    const std::vector<SimResult> split =
        simulateWorkloadPolicies(workload, policies, sys);
    ASSERT_EQ(split.size(), policies.size());
    for (size_t p = 0; p < policies.size(); ++p) {
        SCOPED_TRACE(workload.name() + " " + policies[p].name);
        const SimResult ref =
            simulateWorkload(workload, policies[p].make, sys);
        EXPECT_EQ(split[p].ipc, ref.ipc);
        EXPECT_EQ(split[p].instructions, ref.instructions);
        EXPECT_EQ(split[p].cycles, ref.cycles);
        EXPECT_EQ(split[p].llcMisses, ref.llcMisses);
        EXPECT_EQ(split[p].llcMpki, ref.llcMpki);
        EXPECT_GT(ref.llcMisses, 0u);
    }
}

TEST(PerfSplit, MatchesReferenceAcrossGeometriesAndWarmup)
{
    const std::vector<Workload> workloads = splitWorkloads();
    for (const unsigned ways : {8u, 16u, 32u}) {
        const std::vector<PolicyDef> policies = splitPolicies(ways);
        for (const double warmup : {0.0, 1.0 / 3.0}) {
            SCOPED_TRACE(std::to_string(ways) + " ways, warmup " +
                         std::to_string(warmup));
            for (const Workload &w : workloads)
                expectSplitMatchesReference(w, policies,
                                            splitSystem(ways, warmup));
        }
    }
}

TEST(PerfSplit, UnpackableGeometriesReplayOnScalarModel)
{
    const std::vector<Workload> workloads = splitWorkloads();
    // 12 ways: no PLRU tree, so only the recency family packs; the
    // RRIP/PDP/SHiP models are scalar at any width.
    Rng rng(12);
    const std::vector<PolicyDef> at12 = {
        lruDef(),
        giplrDef("GIPLR",
                 vectorsFor(12, {local_vectors::giplr()}, rng)[0]),
        drripDef(), pdpDef(), shipDef()};
    // 128 ways: beyond the packed model's 64-way limit, so even LRU's
    // fastSpec falls back to a SetAssocCache.
    const SystemParams sys128 = splitSystem(128, 1.0 / 3.0);
    ASSERT_FALSE(fastpath::SoaCacheModel::supports(*lruDef().fastSpec,
                                                   sys128.hier.llc));
    const std::vector<PolicyDef> at128 = {lruDef(), shipDef()};
    for (const Workload &w : workloads) {
        expectSplitMatchesReference(w, at12, splitSystem(12, 1.0 / 3.0));
        expectSplitMatchesReference(w, at128, sys128);
    }
}

TEST(PerfSplit, InclusiveLlcReturnsReferenceResults)
{
    // Back-invalidation couples the L1/L2 to the LLC policy, so the
    // split must not apply.
    SystemParams sys = splitSystem(16, 1.0 / 3.0);
    sys.hier.inclusiveLlc = true;
    const std::vector<PolicyDef> policies = {
        lruDef(), policyByName("GIPPR"), policyByName("DGIPPR4"),
        drripDef(), shipDef()};
    for (const Workload &w : splitWorkloads())
        expectSplitMatchesReference(w, policies, sys);
}

} // namespace
} // namespace gippr
