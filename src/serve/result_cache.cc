#include "serve/result_cache.h"

#include <algorithm>
#include <string_view>
#include <utility>

namespace tdmatch {
namespace serve {

namespace {

/// FNV-1a 64-bit over the bytes, finished with a splitmix64 avalanche so
/// keys that differ only in a short suffix ("q1|k=5", "q2|k=5") still
/// spread across stripes.
uint64_t Hash64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  if (!enabled()) return;
  size_t stripes = std::max<size_t>(1, options_.stripes);
  // No point striping wider than one entry per stripe.
  stripes = std::min(stripes, options_.capacity);
  options_.stripes = stripes;
  stripe_capacity_ = std::max<size_t>(1, options_.capacity / stripes);
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ResultCache::Stripe& ResultCache::StripeFor(const std::string& key) {
  return *stripes_[Hash64(key) % stripes_.size()];
}

bool ResultCache::Get(const std::string& key, uint64_t version,
                      std::string* body) {
  if (!enabled()) return false;
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.index.find(key);
  if (it == stripe.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second->version != version) {
    // Stale epoch: a reload happened between Put and this Get. Drop the
    // entry so the stripe never fills with unservable bodies.
    stripe.lru.erase(it->second);
    stripe.index.erase(it);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
  *body = it->second->body;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::Put(const std::string& key, uint64_t version,
                      std::string body) {
  if (!enabled()) return;
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.index.find(key);
  if (it != stripe.index.end()) {
    it->second->version = version;
    it->second->body = std::move(body);
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    return;
  }
  stripe.lru.push_front(Entry{key, version, std::move(body)});
  stripe.index.emplace(key, stripe.lru.begin());
  while (stripe.lru.size() > stripe_capacity_) {
    stripe.index.erase(stripe.lru.back().key);
    stripe.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::Clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->lru.clear();
    stripe->index.clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->lru.size();
  }
  return total;
}

}  // namespace serve
}  // namespace tdmatch
