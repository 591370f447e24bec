// Keyed result cache for hot queries — the graceful-degradation store.
//
// Every successful keyed query (control/ubo/closelinks for one company at
// one threshold) is inserted under a canonical key together with the
// graph version it was computed against. Two uses:
//
//  * fast path — a hit at the *current* version is returned immediately
//    (flagged "cached": true), skipping re-evaluation entirely;
//  * degradation — when a request's deadline has already passed (or
//    expires mid-evaluation), the server returns the cached value even if
//    it was computed against an older version, flagged "stale": true,
//    instead of failing the request. A stale answer about company control
//    beats no answer for an interactive consumer; clients that cannot
//    accept staleness simply retry with a real deadline.
//
// LRU eviction bounds the entry count (`--cache-entries`); all methods
// are thread-safe (single mutex — entries are small and the critical
// sections are pointer moves).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/json.h"

namespace vadalink::serve {

/// One cached query result.
struct CacheEntry {
  Json result;
  uint64_t version = 0;  // graph version the result was computed against
};

class ResultCache {
 public:
  /// `capacity` = maximum entries; 0 disables caching entirely.
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Inserts (or refreshes) `key`. Entries from older versions are
  /// overwritten; an insert at an older version than the cached one is
  /// ignored (a slow worker must not roll the cache backwards).
  void Put(const std::string& key, Json result, uint64_t version);

  /// Copies the entry for `key` into `out` and returns true on a hit.
  bool Get(const std::string& key, CacheEntry* out);

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<std::string>;
  struct Slot {
    CacheEntry entry;
    LruList::iterator lru_pos;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> map_;
  LruList lru_;  // front = most recently used
};

}  // namespace vadalink::serve
