/**
 * @file
 * Aho-Corasick multi-pattern matcher: the regular-expression-matching
 * (REM) substrate. The paper's REM function runs literal rulesets
 * (teakettle_2500, snort_literals) through the BF-2 RXP accelerator
 * or Hyperscan on the host; both engines reduce literal rulesets to
 * exactly this automaton.
 */

#ifndef HALSIM_ALG_AHO_CORASICK_HH
#define HALSIM_ALG_AHO_CORASICK_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace halsim::alg {

/** One pattern hit: which pattern ended at which offset. */
struct Match
{
    std::uint32_t pattern;   //!< index into the rule list
    std::size_t end;         //!< offset one past the last byte

    bool
    operator==(const Match &o) const
    {
        return pattern == o.pattern && end == o.end;
    }
};

/**
 * Aho-Corasick automaton with goto/fail links flattened into a dense
 * delta table for scan speed. The alphabet is compressed into byte
 * classes: every byte that occurs in some pattern gets its own class,
 * and all other bytes share one (they can only lead back to the
 * root). Rows are a power-of-two stride of classes wide, and next
 * states are stored premultiplied by the stride, so a step is one
 * load from the table.
 */
class AhoCorasick
{
  public:
    /** Build the automaton for the given literal patterns. */
    explicit AhoCorasick(const std::vector<std::string> &patterns);

    /** Number of trie states (hardware-cost proxy). */
    std::size_t stateCount() const { return counts_.size(); }

    std::size_t patternCount() const { return patternLengths_.size(); }

    /**
     * Count all matches (including overlaps) in @p data. From 256
     * bytes up the scan runs as four interleaved lanes: lane j > 0
     * starts from the root longestPattern()-1 bytes before its
     * segment and counts only the matches ending inside it, which
     * are exactly the matches a single scan finds there.
     */
    std::uint64_t countMatches(std::span<const std::uint8_t> data) const;

    /** Collect all matches; order is by end offset, then pattern. */
    std::vector<Match> findAll(std::span<const std::uint8_t> data) const;

    /** True when any pattern occurs in @p data (early exit). */
    bool contains(std::span<const std::uint8_t> data) const;

    /** Bytes in the longest pattern (0 without patterns). */
    std::size_t longestPattern() const { return maxLen_; }

  private:
    void build(const std::vector<std::string> &patterns);

    /** Advance premultiplied state @p s by byte @p c. */
    std::uint32_t
    step(std::uint32_t s, std::uint8_t c) const
    {
        return delta_[s + classOf_[c]];
    }

    /** Matches ending at premultiplied state @p s. */
    std::uint32_t
    countAt(std::uint32_t s) const
    {
        return counts_[s >> shift_];
    }

    /** Matches ending in data[from, to) from state @p s at @p from. */
    std::uint64_t scanCount(std::uint32_t &s, const std::uint8_t *from,
                            const std::uint8_t *to) const;

    std::array<std::uint8_t, 256> classOf_{};   //!< byte -> class
    unsigned shift_ = 0;                        //!< log2 of row stride
    std::size_t maxLen_ = 0;
    /** delta_[state * stride + class] -> next state * stride. */
    std::vector<std::uint32_t> delta_;
    /** counts_[state]: patterns ending at the state. */
    std::vector<std::uint32_t> counts_;
    /** matchList_[outBegin_[s] .. outBegin_[s + 1]): pattern ids. */
    std::vector<std::uint32_t> outBegin_;
    std::vector<std::uint32_t> matchList_;
    std::vector<std::uint32_t> patternLengths_;
};

} // namespace halsim::alg

#endif // HALSIM_ALG_AHO_CORASICK_HH
