// The blocked replay kernel (sim::BatchedReplay over a CompiledLog)
// held to committed rows: the identity::digestOf of every SimResult
// field, the benchmark and the manager name. The rows were recorded
// while the per-event reference loop over the raw AccessLog still ran
// beside the kernel and agreed with it on every field; the
// independent Figure-8 model of test_tier_oracle.cc now checks the
// kernel's semantics on random topologies and logs. On a mismatch a
// test prints the row that would replace the committed one.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codecache/generational_cache.h"
#include "codecache/tier_pipeline.h"
#include "codecache/unified_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/batched_replay.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "sim_identity.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/compiled_log.h"
#include "workload/profile.h"

namespace {

using namespace gencache;
using identity::DigestRow;
using identity::expectIdentical;
using identity::expectRow;

/** Lanes per profile in the two all-profile tables: the sweep
 *  thresholds 1, 5, 10 and 50, in that order. */
constexpr std::size_t kThresholds = 4;

/** 45-10-45 at managedCapacityBytes(), one digest per threshold. */
const DigestRow<kThresholds> kGoldenManaged[] = {
    {"gzip", {0x75c8b46140b65cd6, 0xa381bc4980eb7870, 0x14d2bd36e7f39161,
     0xece3ae910db9e2bb}},
    {"vpr", {0x30fa2f33dd5361c4, 0x60e7289e6336f656, 0x6ae880509cccb060,
     0xb226793fb164e560}},
    {"gcc", {0xb7f94539ba187aca, 0x9b59d8215d1e96f3, 0xa31a6a08ce299032,
     0x617e4deadbd7c582}},
    {"mcf", {0x206e97dc77700e77, 0xa4030c029c8540a7, 0xcf1f13585bdaf744,
     0xf62676ea663dd166}},
    {"crafty", {0xca94dd6d52623ce5, 0x2072effe0a087bf0, 0x37472028beab1e05,
     0xa20cb5a6c090099a}},
    {"parser", {0x0963b8a42f708407, 0x75205ccf61ba9f50, 0x08a56bec5e02e447,
     0x8ecdfde822db2720}},
    {"eon", {0x17a48cb8f39b90dc, 0xf8f7ac5ef4e0c91f, 0x949be8602d32f112,
     0xa6836163e5341be5}},
    {"perlbmk", {0xbe578ac293efebed, 0xdc2cb984cb30474a,
     0xe3677ded151ca51a, 0x278343c295316478}},
    {"gap", {0x1be3b07e49cf2b67, 0xec5d10896459d36f, 0x26b9e6f384e0de19,
     0x2aec7d508466e11d}},
    {"vortex", {0x856a06d48656cd84, 0xe8e77ff79f7cac53, 0x73e35fffb41ef91a,
     0xebe849c6c23db920}},
    {"bzip2", {0x8a5b40ac91795c22, 0x0a6512a259c1fdb9, 0x23d4616472d9db35,
     0xb46fe02672a83799}},
    {"twolf", {0x7a0d9b318c772b1c, 0xf1080110c2f4362d, 0xc5f3c933ba2cc332,
     0x85f0a0b5fd64c6ee}},
    {"wupwise", {0x1e130c70345afecc, 0x1771429a80e3cbf1,
     0xb11f7232f20c99ab, 0x7194f94ba84083b5}},
    {"swim", {0x1adb297a775e0a78, 0x031a6c2bda18226e, 0x4ef573729ea6d0d5,
     0xb17bc5be487ed828}},
    {"mgrid", {0xb68ab370024fbaed, 0x608098f1b56af865, 0x8209994c9fe2433a,
     0x17a5ae2aef7f0edd}},
    {"applu", {0x67cf1cb6dd58f618, 0xaac21dd72c8d2a0a, 0x89a90db8dfd6ce48,
     0xedcace302081a1d9}},
    {"mesa", {0x04672bdde1c4f9ec, 0x684d6dd5f87bb276, 0xb97af65d1261a42b,
     0x4c9bf833714d2f12}},
    {"galgel", {0x5c14e9dbd8b10152, 0x0bbe003aff17719f, 0x6e6886fe70a892c2,
     0x40c82a3863fe6a3e}},
    {"art", {0xd3cb2fdc893877c1, 0xed346dc5ad39ccef, 0xea7f0d262e1ef6aa,
     0xb16aee00dcd47c51}},
    {"equake", {0xdd9d54a5d1f35b0c, 0x724693ff8061ff3b, 0x46e852df8ef8b0ea,
     0xaf2375311704f1eb}},
    {"facerec", {0x279d185ca7922bd4, 0x6102bc8379abcc03,
     0x7f6ab77de21a16eb, 0xc454767b0380459b}},
    {"ammp", {0xabc12607c98a0111, 0xd787d50308e48f0e, 0x015fb64249f879f1,
     0x1a2bb3048f1ab61c}},
    {"lucas", {0x0dbd9af71f73460b, 0x37a57fcf85c1cd12, 0x51b9d40bc5068575,
     0x7e906f9e0dff6a47}},
    {"fma3d", {0x694c7d2a3365e3a8, 0xb79a9fdbf156ed17, 0x42c4e65d16befdfd,
     0x99d51085f68c296c}},
    {"sixtrack", {0x15aa2dcaed703056, 0xd1293a1a3e06b88c,
     0x49e02395d77b1e3c, 0xda3cf88d8f75db10}},
    {"apsi", {0xc494611bfc337436, 0x54db8e24a4076fef, 0x77a5e28f460d2c03,
     0x117f79bb3261c844}},
    {"access", {0xce60b10a005b3634, 0x69667359916630cd, 0x6cf2ab44a319d08e,
     0x897297b71b9d7510}},
    {"acroread", {0x4897ea77fdde68ce, 0x282cdf93a63d0657,
     0xc73512afd7694c78, 0xc4aecb8f3d6838de}},
    {"defrag", {0x076bf45e832415c3, 0x186e2ef8ebac19f3, 0x7ea77e542f38bd55,
     0x53fa071a57d133ea}},
    {"excel", {0xbf50d3df3add9f10, 0x52f2c1a865298f50, 0xb8c266cea41fd36e,
     0x22486a474aee8159}},
    {"iexplore", {0x14a8ec0ffe7ac24b, 0xfbd090f7886d4a59,
     0xc112f604632ed059, 0x77684f76bb4f0867}},
    {"mpeg", {0xf4b0a4f32c019df1, 0xa47ae05bbcd103b1, 0xc34af3140fc6a8a4,
     0x579869f979781d20}},
    {"outlook", {0x4330aaf14ea78382, 0xd42728dc1cad86cc,
     0x8d4f39df4837a2d2, 0xae789f579b727889}},
    {"pinball", {0x5b5d78c8f3194dba, 0xb4c4e05d787aa2e8,
     0x9162c5f19a897abc, 0xf069cc5d2712321a}},
    {"powerpoint", {0xfaab97308fdb73a3, 0x7df550869dffdab5,
     0x4fe6778844d786cb, 0xb83344629bb68d9f}},
    {"solitaire", {0xb7767152b21ae23e, 0x3bbb0b801afb9651,
     0x5e7e16a4a500b2b0, 0x621db3d27ee05ea9}},
    {"winzip", {0x2991fa903b72cf6d, 0xa0371084bdb1f889, 0x24aec7940e00bf3e,
     0x084178e8ce8df2ca}},
    {"word", {0x26640453f9793d74, 0x427bdd747488f164, 0x8221f75eadcbccb7,
     0xbdaffbcaffeb6dac}},
};

/** 45-10-45 at finalCacheKb * 512 bytes, one digest per threshold. */
const DigestRow<kThresholds> kGoldenLaneCounts[] = {
    {"gzip", {0x75c8b46140b65cd6, 0xc8f1353393a9dce6, 0x649131f9e8d8b2ec,
     0xdc39aee6fc5ac43d}},
    {"vpr", {0x30fa2f33dd5361c4, 0xc1f2418d7df21751, 0x65df956db8fcec6b,
     0xb6eabf4d3ebe9d7b}},
    {"gcc", {0xb7f94539ba187aca, 0x28a850d7d843a331, 0xfd31b388210ea07e,
     0x6e27026c6d32b622}},
    {"mcf", {0x20ef12fb34838347, 0xfba932ec42c1fb05, 0x6be5a7049a1045d0,
     0x59520c70344114de}},
    {"crafty", {0x6c5370a99f908543, 0x26882ea5f1d6c038, 0xd111e8cabcab256b,
     0x290a7c3ece60bcae}},
    {"parser", {0x83941029052b4ba9, 0xd44647d9bad98b7f, 0x288310964eeb6d7b,
     0x9277563d1a4bdcb2}},
    {"eon", {0x645cd392fbb6d81b, 0x4be5b655f35fe98f, 0x1e92336d950baa14,
     0x04c6e80afb7a03c4}},
    {"perlbmk", {0xbe578ac293efebed, 0xdc2cb984cb30474a,
     0xe3677ded151ca51a, 0x278343c295316478}},
    {"gap", {0x1be3b07e49cf2b67, 0xb9454fc258c9e098, 0x5e5ddaac3808fd67,
     0xd0c535b28b3a4ce6}},
    {"vortex", {0x5e2d676e34220a38, 0x901152fb709e5857, 0xba4d203f5ff2557d,
     0x091bfc3eaaf98089}},
    {"bzip2", {0x46e74d1f5a81f65c, 0x41dd6c5adb0d55d2, 0xe229287d374a93de,
     0x2fcd797a3a4f1834}},
    {"twolf", {0x1eb3d1939b5e47cc, 0xbc3c45a3328aea79, 0x094c33c7f23040a8,
     0x24f92518efbae191}},
    {"wupwise", {0x506e78ee11dd1f8b, 0xf29256d8cb183d7d,
     0xc136aa4fd0ef2553, 0x9b5721fd7417948f}},
    {"swim", {0xe155a1208eaeb756, 0xf17e2428ce81b2c2, 0xc6da2defcd4e7621,
     0x026c6aa56b91dc47}},
    {"mgrid", {0xcd9004ead6411bcf, 0x75ac89196b155628, 0xf147e8a28973ec5c,
     0x2d519d1e203194cb}},
    {"applu", {0xa20b9cfe01eb0670, 0x824bdd88485bf196, 0x41425381e0800ae0,
     0xfb3062ca698e53cd}},
    {"mesa", {0xd757cae9dc81e328, 0x395be3fee199a0ef, 0xda1d3d6761394f5a,
     0x89ff1f5112a73cf0}},
    {"galgel", {0xdfbe9b5115d036f7, 0x39c1220982423b4b, 0xbc8a49ff8c2872c3,
     0xafa63759c401f97b}},
    {"art", {0x20792de656eb2d8a, 0x53f3510edc354641, 0x9b2e3784bf0417d2,
     0xeccc7f0d6ae7a2f3}},
    {"equake", {0xc609b3fa11203e28, 0xc17936b822f1c808, 0x1c0e78de33bad9c4,
     0x070338d248627685}},
    {"facerec", {0xbdef12611e0c9e46, 0x9f7b593333435921,
     0xe2ff2f1b34b32ae3, 0x6355833e8e0891df}},
    {"ammp", {0x93b853a0e645e599, 0xce0dad5c37019bb2, 0x62d52733c6b5ae4c,
     0x2eecf2e36efc5334}},
    {"lucas", {0xf1073c3d55b7f93d, 0xe1132636be749d06, 0xa28204453b4beb75,
     0x749bc0e8c037dbca}},
    {"fma3d", {0x377bb9d751ef6614, 0xa95db54bb83f4f9f, 0x3012fef219975ae2,
     0x9dd0dff55d1069fa}},
    {"sixtrack", {0xf5a21bdc1cb2bb55, 0x2e3f2f7f77bd247c,
     0x5ab1015d51b32b04, 0xd17ae07107682954}},
    {"apsi", {0x7d0bf3916032b057, 0xad4035b93bb1488d, 0x18439c2b126d218d,
     0x722cea79ed8bf418}},
    {"access", {0x0f31f04054df590a, 0xbfd307b3bf179960, 0x944990672e0d666c,
     0xf875291a39311a2d}},
    {"acroread", {0xf279f337da46e18c, 0xc4df0fe4d070b522,
     0x4b3f95dde6e055f1, 0xfab1363149125011}},
    {"defrag", {0x63f7eb656a8f1fb5, 0x5190e946630b0e45, 0x4c605dba569626cb,
     0x13cff7b6e587ea8e}},
    {"excel", {0x558c7bb13f835836, 0xa04cfde4cab92966, 0xbd0c8da25c5f7785,
     0xeb2f7f7c51742f85}},
    {"iexplore", {0x5932d62ee9657cbf, 0x59651bc2e626b9d9,
     0xe9c6f36d704288a7, 0x4541db6d3dc2d70a}},
    {"mpeg", {0x3808329ec1d49930, 0x80c7b81fba31acf9, 0xa35d5a2084300f5a,
     0x6d09010377d20fbc}},
    {"outlook", {0xdf7003e16d90eb7c, 0x110a9a7af13a191e,
     0x6664612c239c11b3, 0x164cfadbada86766}},
    {"pinball", {0x8007727d61756bb4, 0xa6a0e6da8a2c7f81,
     0x86256b70da17df1d, 0x162f98ac1353c28b}},
    {"powerpoint", {0x53f45a848f45c349, 0x5aac1a32be728443,
     0xb1125584a716142c, 0x8af861a30eab0fcb}},
    {"solitaire", {0xeea98531698ab6f9, 0xcd0e69f82e5f9c32,
     0x777bb4e946f73089, 0xbb664970a6d1b3d0}},
    {"winzip", {0x1229de31a463b250, 0x88c7c6ab908d9bca, 0xd48f2bd3bdd658c9,
     0x7fa2fb42ad8fe7fd}},
    {"word", {0xa1cb4c0df3bc4929, 0x27efaca5ae6c13fd, 0xc6b261729a911768,
     0xafe46a2fa11d0b61}},
};

/** One-lane passes at managedCapacityBytes(). */
const DigestRow<1> kGoldenOneLane[] = {
    {"vortex unified", {0x5f7786e6fd122889}},
    {"crafty 45-10-45 thr 1", {0x54cc2696d48d7106}},
};

/** Quarter-size runner steps: unbounded, unified, then the three
 *  paperLayouts() lanes of compare(). */
const DigestRow<5> kGoldenRunner[] = {
    {"gcc", {0xc0126e407afb8b8b, 0xb7f7134d581481e7, 0x437260f8db7e02e0,
     0x18b6f6e47dae4e2f, 0x604168c79bb4f562}},
    {"word", {0x9a70db5300e0dc4d, 0xcf0a4285263c60e5, 0xbde4133c22215805,
     0xfd4c96d40d09895e, 0xab8763e735da8392}},
};

/** The gcc §6.1 sweep: its baseline, then one row per cell. */
const DigestRow<1> kGoldenSweepCells[] = {
    {"baseline", {0xc8b93a7cbe6c9739}},
    {"33-33-34 thr 1", {0xa9ac2ce01010efa1}},
    {"33-33-34 thr 5", {0xbbf09403ba295f50}},
    {"33-33-34 thr 10", {0x9653e1f72cec80c2}},
    {"33-33-34 thr 50", {0x89e4bcf5c3e0f51d}},
    {"45-10-45 thr 1", {0xe51208aea1e9e502}},
    {"45-10-45 thr 5", {0xe10c2470f919809b}},
    {"45-10-45 thr 10", {0x7f57e02f792d1479}},
    {"45-10-45 thr 50", {0x348952adbc1870cb}},
    {"40-20-40 thr 1", {0x7defe65a6e4c0347}},
    {"40-20-40 thr 5", {0xe2ed10191aa5017a}},
    {"40-20-40 thr 10", {0x624773302dc0bf50}},
    {"40-20-40 thr 50", {0xd8a7f8e1b6639a2f}},
    {"25-50-25 thr 1", {0x758a29585d4bac0c}},
    {"25-50-25 thr 5", {0x64b9a4ee3dae9344}},
    {"25-50-25 thr 10", {0x66fc7eb16eccf77f}},
    {"25-50-25 thr 50", {0x0697f18a6780a3c3}},
    {"60-10-30 thr 1", {0xab60844475d80156}},
    {"60-10-30 thr 5", {0x7705cc8a279de5ca}},
    {"60-10-30 thr 10", {0x7369c8842a2cc3ef}},
    {"60-10-30 thr 50", {0x86945ecfe0aeb460}},
    {"10-45-45 thr 1", {0x51db7212ac9c8aa1}},
    {"10-45-45 thr 5", {0xbdf03df4238b98fd}},
    {"10-45-45 thr 10", {0xc88f05b8e16eb8d8}},
    {"10-45-45 thr 50", {0xabdcc8c9fbf6bcbb}},
};

/** Module-reload logs: unbounded, unified 2 KiB, generational
 *  40-30-30 at 3 KiB. */
const DigestRow<3> kGoldenReload[] = {
    {"journal", {0x0f8689f27eb5b013, 0x9b354ea62e27eefb,
     0x518ef36e05bafc0f}},
    {"live", {0xc9766e569f4f8ab0, 0x20684639e2f39b9e, 0x56337682c4036ff7}},
};

std::uint64_t
managedCapacity(const sim::ExperimentRunner &runner)
{
    return sim::managedCapacityBytes(runner.runUnbounded().peakBytes);
}

sim::GenerationalLayout
layout451045(std::uint32_t threshold)
{
    sim::GenerationalLayout layout;
    layout.label = "45-10-45 thr " + std::to_string(threshold);
    layout.nurseryFrac = 0.45;
    layout.probationFrac = 0.10;
    layout.promotionThreshold = threshold;
    return layout;
}

// Every example workload, every sweep threshold: one blocked pass at
// the managed capacity compare() uses, one digest per threshold.
TEST(ReplayIdentity, BatchedMatchesLegacyOnAllWorkloads)
{
    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        std::uint64_t capacity = managedCapacity(runner);

        std::vector<sim::GenerationalLayout> layouts;
        for (std::uint32_t threshold : sim::defaultSweepThresholds()) {
            layouts.push_back(layout451045(threshold));
        }

        std::vector<sim::SimResult> batched =
            runner.runGenerationalBatch(capacity, layouts);
        ASSERT_EQ(batched.size(), kThresholds);
        std::array<std::uint64_t, kThresholds> digests{};
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            digests[i] = identity::digestOf(batched[i]);
        }
        expectRow(kGoldenManaged, "kGoldenManaged", profile.name,
                  digests);
    }
}

// The blocked (chunk x lane-block, table-priced, SIMD-classified)
// kernel across lane counts straddling the lane-block size (1, a
// partial block, exactly one block, one block plus a straggler), on
// every profile. Metamorphic half: every lane of a threshold, at every
// lane count, must give the same SimResult. Committed half: that
// result's digest, one per (profile, threshold).
TEST(ReplayIdentity, BlockedKernelMatchesReferenceAcrossLaneCounts)
{
    const std::size_t block = sim::BatchedReplay::kLaneBlock;
    const std::size_t laneCounts[] = {1, 3, block, block + 1};
    const std::vector<std::uint32_t> thresholds =
        sim::defaultSweepThresholds();
    ASSERT_EQ(thresholds.size(), kThresholds);

    for (const workload::BenchmarkProfile &profile :
         workload::allProfiles()) {
        sim::ExperimentRunner runner(profile);
        // Cheap capacity proxy (the exact pressure point is
        // immaterial here).
        const std::uint64_t capacity = std::max<std::uint64_t>(
            4096,
            static_cast<std::uint64_t>(profile.finalCacheKb) * 512);
        std::map<std::uint32_t, sim::SimResult> first;

        for (std::size_t lanes : laneCounts) {
            std::vector<sim::GenerationalLayout> layouts;
            for (std::size_t i = 0; i < lanes; ++i) {
                layouts.push_back(
                    layout451045(thresholds[i % thresholds.size()]));
            }
            std::vector<sim::SimResult> blocked =
                runner.runGenerationalBatch(capacity, layouts);
            ASSERT_EQ(blocked.size(), lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                auto [it, fresh] = first.emplace(
                    layouts[i].promotionThreshold, blocked[i]);
                if (fresh) {
                    continue;
                }
                expectIdentical(it->second, blocked[i],
                                profile.name + " lanes " +
                                    std::to_string(lanes) + " lane " +
                                    std::to_string(i));
            }
        }
        std::array<std::uint64_t, kThresholds> digests{};
        for (std::size_t t = 0; t < kThresholds; ++t) {
            digests[t] = identity::digestOf(first.at(thresholds[t]));
        }
        expectRow(kGoldenLaneCounts, "kGoldenLaneCounts", profile.name,
                  digests);
    }
}

// A single manager replayed from the compiled log: a one-lane blocked
// pass, pricing with its own cost tables.
sim::SimResult
replayCompiled(const sim::ExperimentRunner &runner,
               cache::TierPipeline &pipeline)
{
    sim::BatchedReplay replay(runner.compiled());
    replay.addLane(pipeline);
    return replay.run().front();
}

TEST(ReplayIdentity, CompiledSimulatorMatchesLegacyUnified)
{
    sim::ExperimentRunner runner(workload::findProfile("vortex"));
    std::uint64_t capacity = managedCapacity(runner);

    cache::UnifiedCacheManager manager(capacity);
    const sim::SimResult result = replayCompiled(runner, manager);
    expectRow(kGoldenOneLane, "kGoldenOneLane", "vortex unified",
              {identity::digestOf(result)});
}

TEST(ReplayIdentity, CompiledSimulatorMatchesLegacyGenerational)
{
    sim::ExperimentRunner runner(workload::findProfile("crafty"));
    std::uint64_t capacity = managedCapacity(runner);
    cache::GenerationalConfig config =
        cache::GenerationalConfig::fromProportions(capacity, 0.45,
                                                   0.10, 1);

    cache::GenerationalCacheManager manager(config);
    const sim::SimResult result = replayCompiled(runner, manager);
    expectRow(kGoldenOneLane, "kGoldenOneLane", "crafty 45-10-45 thr 1",
              {identity::digestOf(result)});
}

// The runner's §6 steps on the blocked kernel: the one-lane unbounded
// and unified baselines and compare()'s single batched pass (handed a
// 2-worker pool, which it ignores). gcc is a SPEC profile; word adds
// mid-run DLL unloads. Both run at a quarter of their size, which
// keeps every event kind.
TEST(ReplayIdentity, RunnerBaselinesMatchLegacy)
{
    struct Case
    {
        const char *profile;
        bool unloads;
    };
    ThreadPool pool(2);
    for (const Case &c : {Case{"gcc", false}, Case{"word", true}}) {
        workload::BenchmarkProfile profile =
            workload::findProfile(c.profile);
        profile.finalCacheKb *= 0.25;
        profile.durationSec *= 0.25;
        sim::ExperimentRunner runner(profile);
        const std::string what = c.profile;

        bool unloads = false;
        bool pins = false;
        for (const tracelog::Event &event : runner.log().events()) {
            unloads |= event.type == tracelog::EventType::ModuleUnload;
            pins |= event.type == tracelog::EventType::Pin;
        }
        EXPECT_EQ(unloads, c.unloads) << what;
        EXPECT_TRUE(pins) << what;

        const sim::SimResult unbounded = runner.runUnbounded();
        const std::uint64_t capacity =
            sim::managedCapacityBytes(unbounded.peakBytes);
        const sim::SimResult unified = runner.runUnified(capacity);

        const std::vector<sim::GenerationalLayout> layouts =
            sim::paperLayouts();
        sim::BenchmarkComparison comparison =
            runner.compare(layouts, &pool);
        EXPECT_EQ(comparison.maxCacheBytes, unbounded.peakBytes) << what;
        EXPECT_EQ(comparison.capacityBytes, capacity) << what;
        ASSERT_EQ(comparison.generational.size(), layouts.size());
        std::array<std::uint64_t, 5> digests = {
            identity::digestOf(unbounded), identity::digestOf(unified)};
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            EXPECT_EQ(comparison.generational[i].manager,
                      layouts[i].label)
                << what;
            digests[2 + i] =
                identity::digestOf(comparison.generational[i]);
        }
        expectRow(kGoldenRunner, "kGoldenRunner", what, digests);
    }
}

/** Digest of every field of @p cell that a sweep reports. */
std::uint64_t
cellDigest(const sim::SweepCell &cell)
{
    identity::Fnv1a hash;
    hash.add(cell.threshold);
    hash.add(std::bit_cast<std::uint64_t>(cell.missRate));
    hash.add(std::bit_cast<std::uint64_t>(cell.missRateReductionPct));
    hash.add(cell.promotions);
    return hash.value();
}

// Whole-sweep equivalence: every cell of the gcc sweep must match its
// committed row.
TEST(ReplayIdentity, SweepEnginesProduceIdenticalCells)
{
    workload::BenchmarkProfile profile = workload::findProfile("gcc");
    auto points = sim::defaultSweepPoints();
    auto thresholds = sim::defaultSweepThresholds();

    sim::SweepResult sweep = sim::runSweep(profile, points, thresholds);
    ASSERT_GT(sweep.unifiedMissRate, 0.0);
    ASSERT_EQ(sweep.cells.size(), points.size() * thresholds.size());

    identity::Fnv1a baseline;
    baseline.addText(sweep.benchmark);
    baseline.add(sweep.capacityBytes);
    baseline.add(std::bit_cast<std::uint64_t>(sweep.unifiedMissRate));
    expectRow(kGoldenSweepCells, "kGoldenSweepCells", "baseline",
              {baseline.value()});

    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const sim::SweepCell &cell = sweep.cells[i];
        EXPECT_EQ(cell.point.label(),
                  points[i / thresholds.size()].label());
        EXPECT_EQ(cell.threshold, thresholds[i % thresholds.size()]);
        expectRow(kGoldenSweepCells, "kGoldenSweepCells",
                  cell.point.label() + " thr " +
                      std::to_string(cell.threshold),
                  {cellDigest(cell)});
    }
}

/** The live runtime's log of a run, a DLL unload and reload, and a
 *  second run: the reloaded DLL's traces are created again under
 *  their canonical (module uid, offset) ids. */
tracelog::AccessLog
liveReloadLog()
{
    guest::SyntheticProgramConfig config;
    config.seed = 33;
    config.phases = 2;
    config.phaseIterations = 10;
    config.innerIterations = 8;
    config.dllCount = 1;
    guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);

    cache::UnifiedCacheManager manager(0);
    guest::AddressSpace space;
    runtime::Runtime runtime(space, manager, 10);
    for (const auto &module : synthetic.program.modules()) {
        runtime.loadModule(*module);
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    guest::ModuleId dll = synthetic.dllLastPhase.at(0).first;
    runtime.unloadModule(dll);
    for (const auto &module : synthetic.program.modules()) {
        if (module->id() == dll) {
            runtime.loadModule(*module);
        }
    }
    runtime.start(synthetic.program.entry());
    runtime.run();
    return runtime.log();
}

// A module reload re-creates its traces under the same ids, and
// compile() hands out a second dense id for the same original id, so
// the replay treats each such creation as a fresh trace. A
// seven-event journal and the live log above replay as one-lane
// blocked passes under unbounded, pressured-unified, and generational
// managers.
TEST(ReplayIdentity, ModuleReloadLogReplays)
{
    using tracelog::Event;
    tracelog::AccessLog journal;
    journal.setBenchmark("reload-journal");
    journal.append(Event::moduleLoad(0, 1));
    journal.append(Event::traceCreate(1, 42, 64, 1));
    journal.append(Event::traceExec(2, 42));
    journal.append(Event::moduleUnload(3, 1));
    journal.append(Event::moduleLoad(4, 1));
    journal.append(Event::traceCreate(5, 42, 64, 1));
    journal.append(Event::traceExec(6, 42));
    journal.setDuration(6);

    const tracelog::CompiledLog compiledJournal =
        tracelog::CompiledLog::compile(journal);
    ASSERT_EQ(compiledJournal.traceCount(), 2u);
    EXPECT_EQ(compiledJournal.originalId(0), 42u);
    EXPECT_EQ(compiledJournal.originalId(1), 42u);

    const std::pair<const char *, tracelog::AccessLog> logs[] = {
        {"journal", journal}, {"live", liveReloadLog()}};
    for (const auto &[name, log] : logs) {
        log.validate();
        const tracelog::CompiledLog compiled =
            tracelog::CompiledLog::compile(log);
        EXPECT_GT(compiled.traceCount(), 0u) << name;

        std::vector<std::unique_ptr<cache::TierPipeline>> managers;
        managers.push_back(
            std::make_unique<cache::UnifiedCacheManager>(0));
        managers.push_back(
            std::make_unique<cache::UnifiedCacheManager>(2 * kKiB));
        managers.push_back(
            std::make_unique<cache::GenerationalCacheManager>(
                cache::GenerationalConfig::fromProportions(
                    3 * kKiB, 0.40, 0.30, 1)));
        std::array<std::uint64_t, 3> digests{};
        for (std::size_t i = 0; i < managers.size(); ++i) {
            sim::BatchedReplay blocked(compiled);
            blocked.addLane(*managers[i]);
            const sim::SimResult result = blocked.run().front();
            EXPECT_GT(result.createdTraces, 0u) << name;
            digests[i] = identity::digestOf(result);
        }
        expectRow(kGoldenReload, "kGoldenReload", name, digests);
    }
}

// Set-up after begin() cannot take effect: a late lane would have no
// cost accountant for finish() to read, and begin() has already read
// the cost tables. Both panic instead.
TEST(BatchedReplayDeath, SetupAfterBeginPanics)
{
    using tracelog::Event;
    tracelog::AccessLog log;
    log.setBenchmark("setup-after-begin");
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::traceCreate(1, 42, 64, 1));
    log.append(Event::traceExec(2, 42));
    log.setDuration(2);
    const tracelog::CompiledLog compiled =
        tracelog::CompiledLog::compile(log);
    const sim::CostTables tables =
        sim::CostTables::build(compiled, cost::CostModel{});

    cache::UnifiedCacheManager first(0);
    cache::UnifiedCacheManager late(0);
    sim::BatchedReplay replay(compiled);
    replay.addLane(first);
    replay.begin();
    EXPECT_DEATH(replay.addLane(late), "addLane\\(\\) after begin");
    EXPECT_DEATH(replay.setCostTables(&tables),
                 "setCostTables\\(\\) after begin");
}

} // namespace
