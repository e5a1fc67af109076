/**
 * @file
 * Tool-level fuzz cases: seeded corruptions (corrupt_streams.h) of the
 * six clean streams of Serialize.CorruptStreamsMatchCommittedOutcomes,
 * each written to a file and fed to the two tools that load journals,
 * `gencheck --journal <file> --quiet` and `logreplay_tool replay
 * <file>`.
 *
 * Whatever the bytes, gencheck must exit 0 (the journal loaded and
 * checked clean) or 3 (it did not load), and logreplay_tool 0 or 1
 * (its fatal on a load failure, whose message names the file). Neither
 * may die by a signal, hang (a tool still running after kTimeoutSec
 * dies by SIGALRM) or print a sanitizer report. A failure names the
 * stream, the case, the mutation and the tool's stderr.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "corrupt_streams.h"
#include "support/format.h"
#include "support/rng.h"

namespace gencache {
namespace {

constexpr int kCasesPerStream = 40;
constexpr unsigned kTimeoutSec = 60;

/** How one tool run ended, and what it printed to stderr. */
struct ToolRun
{
    int exitCode = -1; ///< -1 when killed by a signal
    int signal = 0;
    std::string err;
};

/** Run @p args (args[0] is the tool) with stdout discarded and stderr
 *  captured through @p err_path. */
ToolRun
runTool(const std::vector<std::string> &args, const std::string &err_path)
{
    std::vector<char *> argv;
    for (const std::string &arg : args) {
        argv.push_back(const_cast<char *>(arg.c_str()));
    }
    argv.push_back(nullptr);
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        if (std::freopen("/dev/null", "w", stdout) == nullptr ||
            std::freopen(err_path.c_str(), "w", stderr) == nullptr) {
            _exit(126);
        }
        alarm(kTimeoutSec); // survives exec: a hang dies by SIGALRM
        execv(argv[0], argv.data());
        _exit(127);
    }
    ToolRun run;
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid) {
        run.err = "fork/waitpid failed";
        return run;
    }
    if (WIFSIGNALED(status)) {
        run.signal = WTERMSIG(status);
    } else {
        run.exitCode = WEXITSTATUS(status);
    }
    std::ifstream in(err_path);
    run.err.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    return run;
}

/** Why @p run is not a clean outcome of a tool whose legal exit codes
 *  are 0 and @p load_failure_code; empty when it is. */
std::string
fault(const ToolRun &run, int load_failure_code, const std::string &path)
{
    if (run.signal != 0) {
        return format("died by signal {}{}", run.signal,
                      run.signal == SIGALRM ? " (hang)" : "");
    }
    if (run.exitCode != 0 && run.exitCode != load_failure_code) {
        return format("exited {}", run.exitCode);
    }
    if (run.exitCode == load_failure_code &&
        run.err.find("'" + path + "'") == std::string::npos) {
        return "load failure does not name the file";
    }
    if (run.err.find("Sanitizer") != std::string::npos ||
        run.err.find("runtime error:") != std::string::npos) {
        return "sanitizer report";
    }
    return "";
}

TEST(ToolFuzz, CorruptJournalsExitCleanly)
{
    const std::string stem = ::testing::TempDir() + "gencache_fuzz_" +
                             std::to_string(getpid());
    const std::string err_path = stem + ".stderr";
    std::uint64_t seed = 1000;
    for (const corrupt::CleanStream &clean : corrupt::cleanStreams()) {
        const std::string path = stem + clean.extension;
        Rng rng(seed++);
        for (int i = 0; i < kCasesPerStream; ++i) {
            std::string bytes = clean.bytes;
            const std::string mutation = corrupt::mutate(bytes, rng);
            std::ofstream(path, std::ios::binary) << bytes;
            const ToolRun checked = runTool(
                {GENCACHE_GENCHECK, "--journal", path, "--quiet"},
                err_path);
            const ToolRun replayed = runTool(
                {GENCACHE_LOGREPLAY_TOOL, "replay", path}, err_path);
            const std::string where = format(
                "{} case {} ({})", clean.label, i, mutation);
            const std::string gencheck_fault = fault(checked, 3, path);
            EXPECT_EQ(gencheck_fault, "")
                << where << ": gencheck --journal\n" << checked.err;
            const std::string replay_fault = fault(replayed, 1, path);
            EXPECT_EQ(replay_fault, "")
                << where << ": logreplay_tool replay\n" << replayed.err;
        }
    }
    std::remove((stem + ".gclogb").c_str());
    std::remove((stem + ".gclog").c_str());
    std::remove(err_path.c_str());
}

} // namespace
} // namespace gencache
