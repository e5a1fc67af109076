#include "sim/fleet.h"

#include <thread>

#include "support/logging.h"

namespace gencache::sim {

FleetSimulator::FleetSimulator(
    const std::vector<tracelog::CompiledLog> &logs,
    FleetOptions options)
    : options_(std::move(options))
{
    if (logs.empty()) {
        fatal("a fleet needs at least one process log");
    }
    const cache::TierTopology *topology =
        cache::findTierTopology(options_.topology);
    if (topology == nullptr) {
        fatal("unknown fleet topology '{}'", options_.topology);
    }
    if (options_.sharing) {
        if (logs.size() > options_.store.processLimit) {
            fatal("fleet of {} exceeds the store's process limit {}",
                  logs.size(), options_.store.processLimit);
        }
        store_ = std::make_unique<cache::SharedCodeStore>(
            options_.store);
    }

    processes_.reserve(logs.size());
    for (std::size_t p = 0; p < logs.size(); ++p) {
        Process process;
        process.log = &logs[p];
        process.pipeline = topology->build(options_.budgetBytes);
        if (store_ != nullptr) {
            process.pipeline->mountSharedStore(
                store_.get(), static_cast<unsigned>(p));
            // Replay feeds the pipeline dense per-log ids; the
            // original-id column is the canonical-key translation.
            process.pipeline->setSharedKeyTable(
                logs[p].originalIds().data(),
                logs[p].originalIds().size());
            for (const auto &[module, uid] : logs[p].moduleUids()) {
                process.pipeline->setSharedModuleUid(module, uid);
            }
        }
        process.replay = std::make_unique<BatchedReplay>(logs[p]);
        process.replay->addLane(*process.pipeline);
        processes_.push_back(std::move(process));
    }
}

FleetSimulator::~FleetSimulator() = default;

FleetResult
FleetSimulator::run()
{
    if (ran_) {
        GENCACHE_PANIC("fleet simulator already ran");
    }
    ran_ = true;
    for (Process &process : processes_) {
        process.replay->begin();
    }
    // Round-robin: every process advances the same chunk quantum per
    // turn until all logs are drained. Single thread, fixed order —
    // the store observes one deterministic interleaving.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (Process &process : processes_) {
            if (process.replay->step(options_.chunksPerTurn)) {
                progressed = true;
            }
        }
    }
    return collect();
}

FleetResult
FleetSimulator::runThreaded()
{
    if (ran_) {
        GENCACHE_PANIC("fleet simulator already ran");
    }
    ran_ = true;
    std::vector<std::thread> threads;
    threads.reserve(processes_.size());
    for (Process &process : processes_) {
        threads.emplace_back([&process, this] {
            process.replay->begin();
            while (process.replay->step(options_.chunksPerTurn)) {
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    return collect();
}

FleetResult
FleetSimulator::collect()
{
    FleetResult result;
    result.sharing = store_ != nullptr;
    result.processes.reserve(processes_.size());
    for (Process &process : processes_) {
        FleetProcessResult entry;
        entry.sim = process.replay->finish().front();
        entry.sharedTier = process.pipeline->sharedTierStats();
        result.processes.push_back(std::move(entry));
    }
    if (store_ != nullptr) {
        store_->validate();
        result.storeStats = store_->stats();
        result.storePeakUsedBytes = store_->peakUsedBytes();
        result.storePeakClaimedBytes = store_->peakClaimedBytes();
        result.storeEntries = store_->entryCount();
    }
    return result;
}

} // namespace gencache::sim
