/**
 * @file
 * Tests for the figure benches' shared helpers: GENCACHE_SCALE must
 * parse strictly, so a typo never silently shrinks a figure, and be
 * read once per binary, so a typo warns once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "paper_figures.h"

namespace {

using namespace gencache;

/** Scoped GENCACHE_SCALE override that restores the prior value. */
class ScopedScaleEnv
{
  public:
    explicit ScopedScaleEnv(const char *value)
    {
        const char *old = std::getenv("GENCACHE_SCALE");
        had_ = old != nullptr;
        if (had_) {
            saved_ = old;
        }
        ::setenv("GENCACHE_SCALE", value, 1);
    }

    ~ScopedScaleEnv()
    {
        if (had_) {
            ::setenv("GENCACHE_SCALE", saved_.c_str(), 1);
        } else {
            ::unsetenv("GENCACHE_SCALE");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(BenchUtil, ScaleFactorRejectsMalformedValues)
{
    for (const char *bad : {"abc", "", "0.1x", "nan", "inf"}) {
        ScopedScaleEnv env(bad);
        EXPECT_EQ(bench::scaleFactor(), 1.0)
            << "GENCACHE_SCALE='" << bad << "'";
    }
}

TEST(BenchUtil, ScaleFactorParsesAndClampsNumbers)
{
    {
        ScopedScaleEnv env("0.25");
        EXPECT_EQ(bench::scaleFactor(), 0.25);
    }
    {
        ScopedScaleEnv env("0.001");
        EXPECT_EQ(bench::scaleFactor(), 0.01);
    }
    {
        ScopedScaleEnv env("50");
        EXPECT_EQ(bench::scaleFactor(), 10.0);
    }
}

TEST(BenchUtil, InvalidScaleWarnsOnce)
{
    ScopedScaleEnv env("abc");
    testing::internal::CaptureStderr();
    const std::vector<workload::BenchmarkProfile> profiles =
        bench::paperProfiles();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(profiles.size(), workload::allProfiles().size());
    std::size_t warnings = 0;
    for (std::size_t at = err.find("GENCACHE_SCALE");
         at != std::string::npos; at = err.find("GENCACHE_SCALE", at + 1)) {
        ++warnings;
    }
    EXPECT_EQ(warnings, 1u) << err;
}

} // namespace
