#include "alg/aho_corasick.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

namespace halsim::alg {

namespace {

/** Below this many bytes one lane is faster than four. */
constexpr std::size_t kMinLaneBytes = 256;

} // namespace

AhoCorasick::AhoCorasick(const std::vector<std::string> &patterns)
{
    build(patterns);
}

void
AhoCorasick::build(const std::vector<std::string> &patterns)
{
    patternLengths_.reserve(patterns.size());
    for (const auto &p : patterns) {
        patternLengths_.push_back(static_cast<std::uint32_t>(p.size()));
        maxLen_ = std::max(maxLen_, p.size());
    }

    // 1. Byte classes, numbered in byte order. Class 0 collects the
    //    bytes no pattern uses; when every byte is used there is no
    //    spare class and each byte is its own class.
    std::array<bool, 256> used{};
    for (const auto &p : patterns)
        for (unsigned char c : p)
            used[c] = true;
    std::size_t nused = 0;
    for (bool u : used)
        nused += u;
    const bool spare = nused < 256;
    std::uint32_t next_class = spare ? 1 : 0;
    for (std::size_t c = 0; c < 256; ++c)
        classOf_[c] = used[c] ? static_cast<std::uint8_t>(next_class++) : 0;
    const std::size_t classes = next_class;
    const std::size_t stride = std::bit_ceil(classes);
    shift_ = static_cast<unsigned>(std::countr_zero(stride));

    // 2. Trie of all patterns, rows of `stride` classes. State 0 is
    //    the root; 0 means "no edge" during this phase (the root is
    //    never a child).
    delta_.assign(stride, 0);
    std::vector<std::vector<std::uint32_t>> out(1);
    for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
        const std::string &p = patterns[pi];
        assert(!p.empty() && "empty pattern is not allowed");
        std::size_t s = 0;
        for (unsigned char c : p) {
            std::uint32_t &edge = delta_[s * stride + classOf_[c]];
            if (edge == 0) {
                edge = static_cast<std::uint32_t>(out.size());
                out.emplace_back();
                delta_.resize(delta_.size() + stride, 0);
            }
            s = delta_[s * stride + classOf_[c]];
        }
        out[s].push_back(pi);
    }
    const std::size_t n = out.size();

    // 3. BFS: failure links, outputs merged along them, and the rows
    //    flattened in place into the delta function. A missing edge
    //    takes the failure state's transition, whose row is final
    //    because that state is shallower.
    std::vector<std::uint32_t> fail(n, 0);
    std::queue<std::uint32_t> bfs;
    bfs.push(0);
    while (!bfs.empty()) {
        const std::uint32_t u = bfs.front();
        bfs.pop();
        std::uint32_t *row = &delta_[u * stride];
        const std::uint32_t *frow = &delta_[fail[u] * stride];
        for (std::size_t c = 0; c < classes; ++c) {
            const std::uint32_t v = row[c];
            if (v == 0) {
                row[c] = u == 0 ? 0 : frow[c];
                continue;
            }
            fail[v] = u == 0 ? 0 : frow[c];
            const auto &fo = out[fail[v]];
            out[v].insert(out[v].end(), fo.begin(), fo.end());
            bfs.push(v);
        }
    }
    for (std::uint32_t &d : delta_)
        d <<= shift_;

    counts_.resize(n);
    outBegin_.resize(n + 1);
    for (std::size_t s = 0; s < n; ++s) {
        std::sort(out[s].begin(), out[s].end());   // findAll's order
        outBegin_[s] = static_cast<std::uint32_t>(matchList_.size());
        counts_[s] = static_cast<std::uint32_t>(out[s].size());
        matchList_.insert(matchList_.end(), out[s].begin(), out[s].end());
    }
    outBegin_[n] = static_cast<std::uint32_t>(matchList_.size());
}

// halint: hotpath
std::uint64_t
AhoCorasick::scanCount(std::uint32_t &s, const std::uint8_t *from,
                       const std::uint8_t *to) const
{
    std::uint64_t count = 0;
    std::uint32_t st = s;
    for (; from != to; ++from) {
        st = step(st, *from);
        count += countAt(st);
    }
    s = st;
    return count;
}

// halint: hotpath
std::uint64_t
AhoCorasick::countMatches(std::span<const std::uint8_t> data) const
{
    const std::size_t n = data.size();
    const std::uint8_t *p = data.data();
    const std::size_t warm = maxLen_ > 0 ? maxLen_ - 1 : 0;
    const std::size_t seg = n / 4;
    std::uint32_t s0 = 0;
    if (n < kMinLaneBytes || warm > seg)
        return scanCount(s0, p, p + n);

    // Lanes 1..3 start from the root longestPattern()-1 bytes before
    // their segment. No state is deeper than longestPattern() bytes,
    // so by the segment's first byte a lane is in the state a single
    // scan would be in.
    const std::uint8_t *p1 = p + seg - warm;
    const std::uint8_t *p2 = p + 2 * seg - warm;
    const std::uint8_t *p3 = p + 3 * seg - warm;
    std::uint32_t s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i < warm; ++i) {
        s1 = step(s1, p1[i]);
        s2 = step(s2, p2[i]);
        s3 = step(s3, p3[i]);
    }
    p1 += warm;
    p2 += warm;
    p3 += warm;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (std::size_t i = 0; i < seg; ++i) {
        s0 = step(s0, p[i]);
        s1 = step(s1, p1[i]);
        s2 = step(s2, p2[i]);
        s3 = step(s3, p3[i]);
        c0 += countAt(s0);
        c1 += countAt(s1);
        c2 += countAt(s2);
        c3 += countAt(s3);
    }
    // Lane 3 owns the n % 4 tail bytes.
    c3 += scanCount(s3, p3 + seg, p + n);
    return c0 + c1 + c2 + c3;
}

std::vector<Match>
AhoCorasick::findAll(std::span<const std::uint8_t> data) const
{
    std::vector<Match> result;
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        s = step(s, data[i]);
        const std::uint32_t st = s >> shift_;
        for (std::uint32_t k = outBegin_[st]; k < outBegin_[st + 1]; ++k)
            result.push_back(Match{matchList_[k], i + 1});
    }
    return result;
}

bool
AhoCorasick::contains(std::span<const std::uint8_t> data) const
{
    std::uint32_t s = 0;
    for (std::uint8_t c : data) {
        s = step(s, c);
        if (countAt(s) != 0)
            return true;
    }
    return false;
}

} // namespace halsim::alg
