#ifndef LLM4D_SIMCORE_MEMO_H_
#define LLM4D_SIMCORE_MEMO_H_

/**
 * @file
 * Memo: the one thread-safe find-or-compute table.
 *
 * Every value must be a pure function of its key. Then it does not
 * matter which thread computes a value, or that two threads missing on
 * the same key at once both compute it (the first insert wins and the
 * other copy is dropped): every caller reads the same bits. The compute
 * runs outside the lock, so misses on different keys price in
 * parallel, and a compute may itself read another Memo. Entries are
 * never erased and std::map never moves a node, so a returned
 * reference stays valid for the Memo's lifetime.
 */

#include <map>
#include <mutex>
#include <utility>

namespace llm4d {

template <typename Key, typename Value>
class Memo
{
  public:
    /** The value at @p key; @p compute() runs only on a miss. */
    template <typename Compute>
    const Value &get(const Key &key, Compute &&compute) const
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const auto it = values_.find(key);
            if (it != values_.end())
                return it->second;
        }
        Value value = compute();
        const std::lock_guard<std::mutex> lock(mutex_);
        return values_.try_emplace(key, std::move(value)).first->second;
    }

  private:
    mutable std::mutex mutex_;
    mutable std::map<Key, Value> values_;
};

} // namespace llm4d

#endif // LLM4D_SIMCORE_MEMO_H_
