/**
 * @file
 * Reproduces every reported result in one process: Table 1 and
 * Figures 1-4, 6 and 9-11, in that order, then Table 2, the §6.1
 * sweep, the local-policy, pressure and eager-promotion ablations and
 * the fragmentation study, each profile generated and measured once
 * (bench/paper_figures.h).
 *
 * GENCACHE_SCALE=<factor> scales every profile's volume (read once);
 * GENCACHE_THREADS sets the worker count (default: the hardware's).
 * The output is the same at every worker count.
 */

#include <cstdio>

#include "paper_figures.h"

int
main()
{
    using namespace gencache;

    ThreadPool pool;
    for (const bench::FigureText &figure : bench::paperFigures(pool)) {
        std::fwrite(figure.text.data(), 1, figure.text.size(), stdout);
    }
    return 0;
}
