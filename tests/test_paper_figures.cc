/**
 * @file
 * The paper's figures pinned by data: the text bench/paper_figures
 * prints for Table 1 and every figure at GENCACHE_SCALE=0.03, one
 * committed row per figure with its line count and FNV-1a. The rows
 * were recorded while the nine per-figure binaries the driver
 * replaced still existed and printed the same bytes. On a mismatch
 * the failure prints the figure and its replacement row; an intended
 * change is recorded by pasting the row over the old one.
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

/** One figure's committed text: its line count and its FNV-1a. */
struct GoldenFigure
{
    const char *label; ///< the figure's name, in print order
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
};

/** The figures at GENCACHE_SCALE=0.03, measured on @p threads
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

// Every figure's text must be the same at 1 and 4 workers, and must
// reproduce its committed row.
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
