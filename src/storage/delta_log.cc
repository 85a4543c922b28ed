#include "src/storage/delta_log.h"

namespace gluenail {

DeltaLog::RelDelta* DeltaLog::Entry(TermId name, uint32_t arity) {
  auto& slot = entries_[Key(name, arity)];
  if (slot == nullptr) slot = std::make_unique<RelDelta>(arity);
  return slot.get();
}

void DeltaLog::CaptureInsert(TermId name, uint32_t arity, RowView row) {
  if (!valid_) return;
  RelDelta* d = Entry(name, arity);
  if (d->dropped) return;
  // Net semantics: re-inserting a tuple erased since the base cancels the
  // erase (the tuple is back where the base had it).
  if (d->erased.Erase(row)) return;
  d->inserted.Insert(row);
  if (d->rows() > max_rows_) {
    d->inserted.Clear();
    d->erased.Clear();
    d->dropped = true;
  }
}

void DeltaLog::CaptureErase(TermId name, uint32_t arity, RowView row) {
  if (!valid_) return;
  RelDelta* d = Entry(name, arity);
  if (d->dropped) return;
  if (d->inserted.Erase(row)) return;
  d->erased.Insert(row);
  if (d->rows() > max_rows_) {
    d->inserted.Clear();
    d->erased.Clear();
    d->dropped = true;
  }
}

}  // namespace gluenail
