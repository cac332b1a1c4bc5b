#include "match/alignment.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

namespace q::match {

std::vector<AlignmentCandidate> TopYPerAttribute(
    std::vector<AlignmentCandidate> candidates, int top_y) {
  if (top_y <= 0) return {};
  // Each candidate's endpoint keys and pair key, built once.
  struct Keys {
    std::string a;
    std::string b;
    std::string pair;  // AlignmentCandidate::PairKey()
  };
  std::vector<Keys> keys(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Keys& k = keys[i];
    k.a = candidates[i].a.ToString();
    k.b = candidates[i].b.ToString();
    k.pair = k.a < k.b ? k.a + "|" + k.b : k.b + "|" + k.a;
  }

  // Deduplicate pairs (max confidence wins, the earliest on ties); the
  // survivors in pair-key order are the output order.
  std::vector<std::uint32_t> order(candidates.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](std::uint32_t x, std::uint32_t y) {
              if (keys[x].pair != keys[y].pair) {
                return keys[x].pair < keys[y].pair;
              }
              return x < y;
            });
  std::vector<std::uint32_t> pairs;
  for (std::uint32_t i : order) {
    if (!pairs.empty() && keys[pairs.back()].pair == keys[i].pair) {
      if (candidates[i].confidence > candidates[pairs.back()].confidence) {
        pairs.back() = i;
      }
      continue;
    }
    pairs.push_back(i);
  }

  // Bucket the pairs by endpoint (a self-pair sits in its bucket twice),
  // each bucket by confidence, then pair key — the pair's position.
  std::vector<std::pair<std::string_view, std::uint32_t>> ends;
  ends.reserve(2 * pairs.size());
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    ends.emplace_back(keys[pairs[p]].a, p);
    ends.emplace_back(keys[pairs[p]].b, p);
  }
  std::sort(ends.begin(), ends.end(),
            [&](const std::pair<std::string_view, std::uint32_t>& x,
                const std::pair<std::string_view, std::uint32_t>& y) {
              if (x.first != y.first) return x.first < y.first;
              const double cx = candidates[pairs[x.second]].confidence;
              const double cy = candidates[pairs[y.second]].confidence;
              if (cx != cy) return cx > cy;
              return x.second < y.second;
            });
  // An edge survives if it is in the top-Y of either endpoint's bucket.
  std::vector<std::uint8_t> kept(pairs.size(), 0);
  for (std::size_t i = 0; i < ends.size();) {
    std::size_t j = i;
    for (; j < ends.size() && ends[j].first == ends[i].first; ++j) {
      if (j - i < static_cast<std::size_t>(top_y)) kept[ends[j].second] = 1;
    }
    i = j;
  }

  std::vector<AlignmentCandidate> out;
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    if (kept[p]) out.push_back(std::move(candidates[pairs[p]]));
  }
  return out;
}

}  // namespace q::match
