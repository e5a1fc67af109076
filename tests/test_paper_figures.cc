/**
 * @file
 * The reported results pinned by data: the text bench/paper_figures
 * prints for Table 1, every figure, Table 2, the §6.1 sweep, the
 * ablations and the fragmentation study at GENCACHE_SCALE=0.03, one
 * committed row per text with its line count and FNV-1a. Each row was
 * recorded while the binary the driver replaced for that text still
 * existed and printed the same bytes (for the §6.1 sweep, without its
 * timing lines). On a mismatch the failure prints the text and its
 * replacement row; an intended change is recorded by pasting the row
 * over the old one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "paper_figures.h"
#include "sim_identity.h"

namespace gencache {
namespace {

/** One text's committed row: its line count and its FNV-1a. */
struct GoldenFigure
{
    const char *label; ///< the text's name, in print order
    std::size_t lines;
    std::uint64_t digest;
};

const GoldenFigure kGoldenFigures[] = {
    {"table1", 19, 0xdec907d414d858cf},
    {"fig1", 54, 0x80c614a56bf6d97b},
    {"fig2", 56, 0xb7a29596e1dd9c19},
    {"fig3", 50, 0x7c1b721ab9488e5c},
    {"fig4", 21, 0x7cafd8f9a1e578ab},
    {"fig6", 56, 0x3222df5293c9c4c6},
    {"fig9", 60, 0xead5a14955973d28},
    {"fig10", 51, 0xe8cbc99c4650f3d0},
    {"fig11", 52, 0xb02c36761a9138fb},
    {"table2", 13, 0x8b510fcb39735016},
    {"sec61", 104, 0x322b9b6cebd5b1b3},
    {"ablation_local_policy", 21, 0xba17c3d426e56eee},
    {"ablation_pressure", 13, 0x3238dd3df9cf9e69},
    {"ablation_eager", 14, 0xe35b41d4071e3887},
    {"fragmentation_study", 23, 0x0f9ab59995431825},
};

/** The texts at GENCACHE_SCALE=0.03, measured on @p threads
 *  workers; the variable's old value is restored afterwards. */
std::vector<bench::FigureText>
figuresAtSmallScale(std::size_t threads)
{
    const char *old = std::getenv("GENCACHE_SCALE");
    const std::string saved = old == nullptr ? "" : old;
    ::setenv("GENCACHE_SCALE", "0.03", 1);
    ThreadPool pool(threads);
    std::vector<bench::FigureText> figures = bench::paperFigures(pool);
    if (old == nullptr) {
        ::unsetenv("GENCACHE_SCALE");
    } else {
        ::setenv("GENCACHE_SCALE", saved.c_str(), 1);
    }
    return figures;
}

// Every text must be the same at 1 and 4 workers, and must reproduce
// its committed row.
TEST(PaperFigures, MatchCommittedDigests)
{
    const std::vector<bench::FigureText> serial = figuresAtSmallScale(1);
    const std::vector<bench::FigureText> threaded = figuresAtSmallScale(4);

    std::vector<std::string> names;
    for (const GoldenFigure &golden : kGoldenFigures) {
        names.emplace_back(golden.label);
    }
    ASSERT_EQ(serial.size(), names.size());
    ASSERT_EQ(threaded.size(), names.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const bench::FigureText &figure = serial[i];
        EXPECT_EQ(figure.name, names[i]);
        EXPECT_EQ(threaded[i].name, figure.name);
        EXPECT_EQ(threaded[i].text, figure.text)
            << figure.name << " differs between 1 and 4 workers";

        const auto lines = static_cast<std::size_t>(
            std::count(figure.text.begin(), figure.text.end(), '\n'));
        identity::Fnv1a hash;
        hash.addText(figure.text);
        const GoldenFigure *golden =
            identity::findRow(kGoldenFigures, figure.name);
        EXPECT_TRUE(golden != nullptr && golden->lines == lines &&
                    golden->digest == hash.value())
            << figure.name << " does not match a committed row. It "
            << "printed:\n"
            << figure.text << "If the change is intended, its row in "
            << "kGoldenFigures becomes:\n    {\"" << figure.name
            << "\", " << lines << ", " << identity::hexDigest(hash.value())
            << "},";
    }
}

} // namespace
} // namespace gencache
