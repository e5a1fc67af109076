/**
 * @file
 * TraceIndex: the residency index shared by every cache layer.
 *
 * Maps TraceId -> a small value (generation, slot, offset). Two
 * backings behind one interface:
 *
 *  - *sparse* (default): an unordered_map, for live execution where
 *    trace identities are arbitrary 64-bit values;
 *  - *dense*: a flat vector plus a presence bitmap, for compiled-log
 *    replay where tracelog::CompiledLog has remapped every trace to a
 *    dense id in [0, traceCount). Point operations become two array
 *    reads with no hashing — the per-event win the batched replay
 *    pipeline is built on.
 *
 * Switching to dense storage (reserveDense) is only legal while the
 * index is empty: callers opt in through
 * TierPipeline::prepareDenseIds before the first insert. The index is
 * never iterated on any behavioural path (only validate()/analysis
 * walk it), so the backing cannot change results — only speed.
 */

#ifndef GENCACHE_CODECACHE_TRACE_INDEX_H
#define GENCACHE_CODECACHE_TRACE_INDEX_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "codecache/fragment.h"
#include "support/logging.h"

namespace gencache::cache {

template <typename V>
class TraceIndex
{
  public:
    /** Switch to dense storage for ids in [0, @p id_bound). Panics if
     *  entries already exist (callers prepare before inserting). */
    void reserveDense(std::uint64_t id_bound)
    {
        if (size_ != 0) {
            GENCACHE_PANIC("reserveDense on an index holding {} "
                           "entries", size_);
        }
        dense_ = true;
        values_.assign(id_bound, V{});
        present_.assign(id_bound, 0);
    }

    bool dense() const { return dense_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const V *find(TraceId id) const
    {
        if (dense_) {
            return id < present_.size() && present_[id] != 0
                       ? &values_[id]
                       : nullptr;
        }
        auto it = map_.find(id);
        return it == map_.end() ? nullptr : &it->second;
    }

    V *find(TraceId id)
    {
        return const_cast<V *>(
            static_cast<const TraceIndex *>(this)->find(id));
    }

    bool contains(TraceId id) const { return find(id) != nullptr; }

    /** Insert or overwrite. */
    void set(TraceId id, const V &value)
    {
        if (dense_) {
            growTo(id);
            if (present_[id] == 0) {
                present_[id] = 1;
                ++size_;
            }
            values_[id] = value;
            return;
        }
        auto [it, fresh] = map_.emplace(id, value);
        if (!fresh) {
            it->second = value;
        } else {
            ++size_;
        }
    }

    /** Insert only. @return false when @p id is already present. */
    bool insert(TraceId id, const V &value)
    {
        if (dense_) {
            growTo(id);
            if (present_[id] != 0) {
                return false;
            }
            present_[id] = 1;
            values_[id] = value;
            ++size_;
            return true;
        }
        if (!map_.emplace(id, value).second) {
            return false;
        }
        ++size_;
        return true;
    }

    /** @return false when @p id was absent. */
    bool erase(TraceId id)
    {
        if (dense_) {
            if (id >= present_.size() || present_[id] == 0) {
                return false;
            }
            present_[id] = 0;
            --size_;
            return true;
        }
        if (map_.erase(id) == 0) {
            return false;
        }
        --size_;
        return true;
    }

    /** Visit every (id, value) entry; order unspecified. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        if (dense_) {
            for (std::size_t id = 0; id < present_.size(); ++id) {
                if (present_[id] != 0) {
                    fn(static_cast<TraceId>(id), values_[id]);
                }
            }
            return;
        }
        for (const auto &[id, value] : map_) {
            fn(id, value);
        }
    }

  private:
    /** Dense ids come from CompiledLog's remap and stay below the
     *  reserved bound; growth only covers late remaps. A sparse
     *  sentinel (kInvalidTrace) reaching a dense index is a caller
     *  bug, not a reason to allocate 2^64 slots. */
    void growTo(TraceId id)
    {
        if (id < present_.size()) {
            return;
        }
        if (id >= kDenseIdLimit) {
            GENCACHE_PANIC("dense trace index got sparse id {}", id);
        }
        values_.resize(id + 1, V{});
        present_.resize(id + 1, 0);
    }

    static constexpr TraceId kDenseIdLimit = 1ULL << 31;

    bool dense_ = false;
    std::size_t size_ = 0;
    std::unordered_map<TraceId, V> map_;
    std::vector<V> values_;
    std::vector<std::uint8_t> present_;
};

} // namespace gencache::cache

#endif // GENCACHE_CODECACHE_TRACE_INDEX_H
