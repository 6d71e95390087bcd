/**
 * @file
 * Open-addressing hash map with backward-shift deletion. Used by the
 * NAT translation table and the key-value store: both of the paper's
 * functions need predictable per-lookup cost on the datapath, which
 * node-based std::unordered_map cannot give.
 */

#ifndef HALSIM_ALG_FIXED_MAP_HH
#define HALSIM_ALG_FIXED_MAP_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace halsim::alg {

/** 64-bit mix (splitmix64 finalizer) to harden weak std::hash. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Linear-probing hash map.
 *
 * @tparam K key type (hashable with std::hash, equality comparable)
 * @tparam V mapped type
 *
 * Deletion uses backward shifting instead of deleted-slot markers, so
 * probe sequences never degrade over time — important for the NAT
 * table, which churns entries constantly. Grows at 70% load.
 */
template <typename K, typename V>
class FixedMap
{
  public:
    explicit FixedMap(std::size_t initial_capacity = 16)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /** Insert or overwrite. @return true when the key was new. */
    bool
    put(const K &key, V value)
    {
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        const std::size_t idx = findSlot(key);
        if (slots_[idx].used) {
            slots_[idx].kv.second = std::move(value);
            return false;
        }
        slots_[idx].used = true;
        slots_[idx].kv = {key, std::move(value)};
        ++size_;
        return true;
    }

    /** Pointer to the mapped value, or nullptr. */
    V *
    find(const K &key)
    {
        const std::size_t idx = findSlot(key);
        return slots_[idx].used ? &slots_[idx].kv.second : nullptr;
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx =
            const_cast<FixedMap *>(this)->findSlot(key);
        return slots_[idx].used ? &slots_[idx].kv.second : nullptr;
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /** Remove @p key. @return true when it existed. */
    bool
    erase(const K &key)
    {
        std::size_t idx = findSlot(key);
        if (!slots_[idx].used)
            return false;
        // Backward-shift deletion: pull subsequent cluster members
        // whose home slot is at or before the vacated index.
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = idx;
        std::size_t probe = (idx + 1) & mask;
        while (slots_[probe].used) {
            const std::size_t home = homeSlot(slots_[probe].kv.first);
            // Move if the hole lies cyclically within [home, probe).
            const bool movable =
                ((probe - home) & mask) >= ((probe - hole) & mask);
            if (movable) {
                slots_[hole] = std::move(slots_[probe]);
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        slots_[hole].used = false;
        slots_[hole].kv = {};
        --size_;
        return true;
    }

    void
    clear()
    {
        for (auto &s : slots_) {
            s.used = false;
            s.kv = {};
        }
        size_ = 0;
    }

    /** Visit every (key, value) pair; @p fn may mutate the value. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &s : slots_)
            if (s.used)
                fn(s.kv.first, s.kv.second);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &s : slots_)
            if (s.used)
                fn(s.kv.first, s.kv.second);
    }

  private:
    struct Slot
    {
        bool used = false;
        std::pair<K, V> kv{};
    };

    std::size_t
    homeSlot(const K &key) const
    {
        return mix64(std::hash<K>{}(key)) & (slots_.size() - 1);
    }

    /** Slot holding @p key, or the first empty slot on its probe path. */
    std::size_t
    findSlot(const K &key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t idx = homeSlot(key);
        while (slots_[idx].used && !(slots_[idx].kv.first == key))
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        size_ = 0;
        for (auto &s : old)
            if (s.used)
                put(s.kv.first, std::move(s.kv.second));
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace halsim::alg

#endif // HALSIM_ALG_FIXED_MAP_HH
