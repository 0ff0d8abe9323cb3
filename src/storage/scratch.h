#ifndef PBITREE_STORAGE_SCRATCH_H_
#define PBITREE_STORAGE_SCRATCH_H_

#include <utility>

#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief Sole owner of one temporary page structure: a heap file
/// (sort runs, partitions, spill and pair files, sorted copies) or an
/// index built on the fly (BPTree, IntervalIndex).
///
/// The rule for scratch storage: every temporary file or index has
/// exactly one Scratch owner. Success paths call Drop() where the pages
/// are done with, so a failed free surfaces at that point; every other
/// exit frees the pages when the owner goes out of scope. Declare the
/// owner before any Appender or Scanner over the same object, so the
/// pins are released before the pages are freed.
///
/// T must provide `Status Drop(BufferManager*)` that frees the pages,
/// is a no-op on an empty object and may be called again after a
/// failure (it keeps only the pages still allocated).
template <typename T>
class Scratch {
 public:
  Scratch() = default;
  /// Adopts `obj`, whose pages live in `bm`.
  Scratch(BufferManager* bm, T obj) : bm_(bm), obj_(std::move(obj)) {}

  /// Adopts what a factory returned, or passes its error on.
  static StatusOr<Scratch> Adopt(BufferManager* bm, StatusOr<T> made) {
    if (!made.ok()) return made.status();
    return Scratch(bm, std::move(made).value());
  }

  /// Creates an empty T (T::Create(bm, args...)) owned by the result.
  template <typename... Args>
  static StatusOr<Scratch> Create(BufferManager* bm, Args&&... args) {
    return Adopt(bm, T::Create(bm, std::forward<Args>(args)...));
  }

  /// Frees the pages on exits that did not Drop; the error of that free
  /// is lost, because the exit already carries the first one.
  ~Scratch() { (void)Drop(); }

  Scratch(Scratch&& o) noexcept
      : bm_(std::exchange(o.bm_, nullptr)), obj_(std::move(o.obj_)) {}
  Scratch& operator=(Scratch&& o) noexcept {
    if (this != &o) {
      (void)Drop();
      bm_ = std::exchange(o.bm_, nullptr);
      obj_ = std::move(o.obj_);
    }
    return *this;
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// Frees the pages now. On failure the owner keeps what is still
  /// allocated, and the destructor tries again. A no-op once dropped or
  /// released.
  Status Drop() {
    if (bm_ == nullptr) return Status::OK();
    PBITREE_RETURN_IF_ERROR(obj_.Drop(bm_));
    bm_ = nullptr;
    return Status::OK();
  }

  /// Hands the object out; the caller owns its pages from here on.
  T Release() {
    bm_ = nullptr;
    return std::move(obj_);
  }

  T& operator*() { return obj_; }
  const T& operator*() const { return obj_; }
  T* operator->() { return &obj_; }
  const T* operator->() const { return &obj_; }
  T* get() { return &obj_; }

 private:
  BufferManager* bm_ = nullptr;  // null: owns nothing
  T obj_;
};

using ScratchFile = Scratch<HeapFile>;

}  // namespace pbitree

#endif  // PBITREE_STORAGE_SCRATCH_H_
