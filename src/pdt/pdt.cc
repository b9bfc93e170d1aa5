#include "pdt/pdt.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace pdtstore {

// ---------------------------------------------------------------------
// Node layout. The paper packs a leaf's entries into 128 bytes at fan-out
// 8. Every array holds exactly kFanout slots; with the header, parent
// link and (for leaves) sibling links a leaf is 184 bytes and an internal
// node 216. A full node is split before it grows, and the two growth
// points (InsertEntryAt, LinkSibling) assert that a slot is free: with no
// slack, an off-by-one would write into the next member, which ASan does
// not see inside one object.
// ---------------------------------------------------------------------

struct Pdt::NodeHeader {
  bool is_leaf = true;
  int16_t count = 0;
  InternNode* parent = nullptr;
  int16_t pos_in_parent = 0;
};

struct Pdt::LeafNode : Pdt::NodeHeader {
  Sid sids[kFanout];
  uint16_t types[kFanout];
  uint64_t values[kFanout];
  LeafNode* next = nullptr;
  LeafNode* prev = nullptr;
};

struct Pdt::InternNode : Pdt::NodeHeader {
  Sid min_sids[kFanout];     // min SID of child i's subtree
  int64_t deltas[kFanout];   // #ins - #del within child i's subtree
  NodeHeader* children[kFanout];
};

// ---------------------------------------------------------------------
// Cursor.
// ---------------------------------------------------------------------

bool Pdt::Cursor::Valid() const { return leaf_ != nullptr && pos_ < leaf_->count; }

Sid Pdt::Cursor::sid() const { return leaf_->sids[pos_]; }
uint16_t Pdt::Cursor::type() const { return leaf_->types[pos_]; }
uint64_t Pdt::Cursor::value() const { return leaf_->values[pos_]; }

void Pdt::Cursor::Next() {
  assert(Valid());
  delta_before_ += DeltaOf(leaf_->types[pos_]);
  ++pos_;
  while (pos_ >= leaf_->count && leaf_->next != nullptr) {
    leaf_ = leaf_->next;
    pos_ = 0;
  }
}

bool Pdt::PrevCursor(Cursor* c) {
  LeafNode* leaf = c->leaf_;
  int pos = c->pos_;
  while (pos == 0) {
    if (leaf->prev == nullptr) return false;
    leaf = leaf->prev;
    pos = leaf->count;
  }
  --pos;
  c->leaf_ = leaf;
  c->pos_ = pos;
  c->delta_before_ -= DeltaOf(leaf->types[pos]);
  return true;
}

// ---------------------------------------------------------------------
// Construction / destruction.
// ---------------------------------------------------------------------

Pdt::Pdt(std::shared_ptr<const Schema> schema)
    : value_space_(std::move(schema)) {
  auto* leaf = new LeafNode();
  leaf->is_leaf = true;
  root_ = leaf;
  first_leaf_ = last_leaf_ = leaf;
  node_count_ = 1;
}

Pdt::~Pdt() { FreeSubtree(root_); }

void Pdt::FreeSubtree(NodeHeader* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    auto* in = static_cast<InternNode*>(node);
    for (int i = 0; i < in->count; ++i) FreeSubtree(in->children[i]);
    delete in;
  } else {
    delete static_cast<LeafNode*>(node);
  }
}

void Pdt::ClearTree() {
  FreeSubtree(root_);
  auto* leaf = new LeafNode();
  root_ = leaf;
  first_leaf_ = last_leaf_ = leaf;
  node_count_ = 1;
  entry_count_ = insert_count_ = delete_count_ = 0;
}

void Pdt::Clear() {
  ClearTree();
  value_space_.Clear();
}

std::unique_ptr<Pdt> Pdt::Clone() const {
  auto copy = std::make_unique<Pdt>(value_space_.shared_schema());
  std::vector<UpdateEntry> entries = Flatten();
  copy->value_space_ = value_space_.Compact(&entries);
  Status st = copy->BuildFromSorted(entries);
  assert(st.ok());
  (void)st;
  return copy;
}

void Pdt::BumpCounters(uint16_t type, int dir) {
  entry_count_ += dir;
  if (type == kTypeIns) insert_count_ += dir;
  if (type == kTypeDel) delete_count_ += dir;
}

// ---------------------------------------------------------------------
// Navigation.
// ---------------------------------------------------------------------

Pdt::Cursor Pdt::DescendRightmostByRid(Rid rid) const {
  Cursor c;
  const NodeHeader* n = root_;
  int64_t delta = 0;
  const int64_t target = static_cast<int64_t>(rid);
  while (!n->is_leaf) {
    const auto* in = static_cast<const InternNode*>(n);
    int chosen = 0;
    int64_t chosen_delta = delta;
    int64_t running = delta;
    for (int i = 1; i < in->count; ++i) {
      running += in->deltas[i - 1];
      // first-entry RID of child i
      if (static_cast<int64_t>(in->min_sids[i]) + running <= target) {
        chosen = i;
        chosen_delta = running;
      }
    }
    delta = chosen_delta;
    n = in->children[chosen];
  }
  c.leaf_ = const_cast<LeafNode*>(static_cast<const LeafNode*>(n));
  c.pos_ = 0;
  c.delta_before_ = delta;
  return c;
}

Pdt::Cursor Pdt::DescendRightmostBySidRid(Sid sid, Rid rid) const {
  Cursor c;
  const NodeHeader* n = root_;
  int64_t delta = 0;
  const int64_t target_rid = static_cast<int64_t>(rid);
  while (!n->is_leaf) {
    const auto* in = static_cast<const InternNode*>(n);
    int chosen = 0;
    int64_t chosen_delta = delta;
    int64_t running = delta;
    for (int i = 1; i < in->count; ++i) {
      running += in->deltas[i - 1];
      int64_t child_rid = static_cast<int64_t>(in->min_sids[i]) + running;
      // lexicographic (min_sid, min_rid) <= (sid, rid)
      if (in->min_sids[i] < sid ||
          (in->min_sids[i] == sid && child_rid <= target_rid)) {
        chosen = i;
        chosen_delta = running;
      }
    }
    delta = chosen_delta;
    n = in->children[chosen];
  }
  c.leaf_ = const_cast<LeafNode*>(static_cast<const LeafNode*>(n));
  c.pos_ = 0;
  c.delta_before_ = delta;
  return c;
}

Pdt::Cursor Pdt::DescendLeftmostBySid(Sid sid) const {
  Cursor c;
  const NodeHeader* n = root_;
  int64_t delta = 0;
  while (!n->is_leaf) {
    const auto* in = static_cast<const InternNode*>(n);
    int chosen = in->count - 1;
    for (int i = 0; i + 1 < in->count; ++i) {
      if (in->min_sids[i + 1] >= sid) {
        chosen = i;
        break;
      }
      delta += in->deltas[i];
    }
    n = in->children[chosen];
  }
  c.leaf_ = const_cast<LeafNode*>(static_cast<const LeafNode*>(n));
  c.pos_ = 0;
  c.delta_before_ = delta;
  return c;
}

Pdt::Cursor Pdt::Begin() const {
  Cursor c;
  c.leaf_ = first_leaf_;
  c.pos_ = 0;
  c.delta_before_ = 0;
  return c;
}

Pdt::Cursor Pdt::SeekSid(Sid sid) const {
  Cursor c = DescendLeftmostBySid(sid);
  while (c.Valid() && c.sid() < sid) c.Next();
  return c;
}

// ---------------------------------------------------------------------
// Structural editing.
// ---------------------------------------------------------------------

int64_t Pdt::SubtreeDelta(const NodeHeader* node) const {
  if (node->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(node);
    int64_t d = 0;
    for (int i = 0; i < leaf->count; ++i) d += DeltaOf(leaf->types[i]);
    return d;
  }
  const auto* in = static_cast<const InternNode*>(node);
  int64_t d = 0;
  for (int i = 0; i < in->count; ++i) d += in->deltas[i];
  return d;
}

Sid Pdt::SubtreeMinSid(const NodeHeader* node) const {
  if (node->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(node);
    return leaf->count > 0 ? leaf->sids[0] : 0;
  }
  return static_cast<const InternNode*>(node)->min_sids[0];
}

void Pdt::AddNodeDeltas(LeafNode* leaf, int64_t val) {
  NodeHeader* node = leaf;
  while (node->parent != nullptr) {
    node->parent->deltas[node->pos_in_parent] += val;
    node = node->parent;
  }
}

void Pdt::UpdateMinSidUpward(NodeHeader* node) {
  while (node->parent != nullptr) {
    node->parent->min_sids[node->pos_in_parent] = SubtreeMinSid(node);
    if (node->pos_in_parent != 0) break;
    node = node->parent;
  }
}

void Pdt::LinkSibling(NodeHeader* left, NodeHeader* right, Sid right_min,
                      int64_t right_delta) {
  InternNode* parent = left->parent;
  if (parent == nullptr) {
    // `left` was the root: grow the tree by one level.
    auto* nr = new InternNode();
    ++node_count_;
    nr->is_leaf = false;
    nr->count = 2;
    nr->children[0] = left;
    nr->children[1] = right;
    nr->min_sids[0] = SubtreeMinSid(left);
    nr->min_sids[1] = right_min;
    nr->deltas[0] = SubtreeDelta(left);
    nr->deltas[1] = right_delta;
    left->parent = nr;
    left->pos_in_parent = 0;
    right->parent = nr;
    right->pos_in_parent = 1;
    root_ = nr;
    return;
  }
  if (parent->count == kFanout) {
    SplitIntern(parent);
    parent = left->parent;  // the split may have moved `left`
  }
  assert(parent->count < kFanout);
  int lpos = left->pos_in_parent;
  parent->deltas[lpos] -= right_delta;
  for (int i = parent->count; i > lpos + 1; --i) {
    parent->children[i] = parent->children[i - 1];
    parent->min_sids[i] = parent->min_sids[i - 1];
    parent->deltas[i] = parent->deltas[i - 1];
    parent->children[i]->pos_in_parent = static_cast<int16_t>(i);
  }
  parent->children[lpos + 1] = right;
  parent->min_sids[lpos + 1] = right_min;
  parent->deltas[lpos + 1] = right_delta;
  right->parent = parent;
  right->pos_in_parent = static_cast<int16_t>(lpos + 1);
  ++parent->count;
}

Pdt::LeafNode* Pdt::SplitLeaf(LeafNode* leaf) {
  auto* right = new LeafNode();
  ++node_count_;
  int half = leaf->count / 2;
  int moved = leaf->count - half;
  int64_t moved_delta = 0;
  for (int i = 0; i < moved; ++i) {
    right->sids[i] = leaf->sids[half + i];
    right->types[i] = leaf->types[half + i];
    right->values[i] = leaf->values[half + i];
    moved_delta += DeltaOf(right->types[i]);
  }
  right->count = static_cast<int16_t>(moved);
  leaf->count = static_cast<int16_t>(half);
  right->next = leaf->next;
  right->prev = leaf;
  if (leaf->next != nullptr) {
    leaf->next->prev = right;
  } else {
    last_leaf_ = right;
  }
  leaf->next = right;
  LinkSibling(leaf, right, right->sids[0], moved_delta);
  return right;
}

Pdt::InternNode* Pdt::SplitIntern(InternNode* node) {
  auto* right = new InternNode();
  ++node_count_;
  right->is_leaf = false;
  int half = node->count / 2;
  int moved = node->count - half;
  int64_t moved_delta = 0;
  for (int i = 0; i < moved; ++i) {
    right->children[i] = node->children[half + i];
    right->min_sids[i] = node->min_sids[half + i];
    right->deltas[i] = node->deltas[half + i];
    right->children[i]->parent = right;
    right->children[i]->pos_in_parent = static_cast<int16_t>(i);
    moved_delta += right->deltas[i];
  }
  right->count = static_cast<int16_t>(moved);
  node->count = static_cast<int16_t>(half);
  LinkSibling(node, right, right->min_sids[0], moved_delta);
  return right;
}

void Pdt::InsertEntryAt(Cursor* c, Sid sid, uint16_t type, uint64_t value) {
  LeafNode* leaf = c->leaf_;
  int pos = c->pos_;
  if (leaf->count == kFanout) {
    LeafNode* right = SplitLeaf(leaf);
    if (pos > leaf->count) {
      pos -= leaf->count;
      leaf = right;
    }
  }
  assert(leaf->count < kFanout);
  for (int i = leaf->count; i > pos; --i) {
    leaf->sids[i] = leaf->sids[i - 1];
    leaf->types[i] = leaf->types[i - 1];
    leaf->values[i] = leaf->values[i - 1];
  }
  leaf->sids[pos] = sid;
  leaf->types[pos] = type;
  leaf->values[pos] = value;
  ++leaf->count;
  AddNodeDeltas(leaf, DeltaOf(type));
  if (pos == 0) UpdateMinSidUpward(leaf);
  BumpCounters(type, +1);
  c->leaf_ = leaf;
  c->pos_ = pos;
}

void Pdt::RemoveFromParent(NodeHeader* node) {
  InternNode* parent = node->parent;
  assert(parent != nullptr);
  int pos = node->pos_in_parent;
  for (int i = pos; i + 1 < parent->count; ++i) {
    parent->children[i] = parent->children[i + 1];
    parent->min_sids[i] = parent->min_sids[i + 1];
    parent->deltas[i] = parent->deltas[i + 1];
    parent->children[i]->pos_in_parent = static_cast<int16_t>(i);
  }
  --parent->count;
  if (parent->count == 0) {
    // Only possible transiently; remove the now-empty parent as well.
    if (parent == root_) {
      // Tree became empty of internal structure; should not happen since
      // leaves collapse into the root first, but handle defensively.
      return;
    }
    RemoveFromParent(parent);
    delete parent;
    --node_count_;
    return;
  }
  UpdateMinSidUpward(parent->children[0]);
  if (parent == root_ && parent->count == 1) {
    root_ = parent->children[0];
    root_->parent = nullptr;
    root_->pos_in_parent = 0;
    delete parent;
    --node_count_;
  }
}

void Pdt::RemoveEntryAt(Cursor* c) {
  LeafNode* leaf = c->leaf_;
  int pos = c->pos_;
  assert(pos < leaf->count);
  uint16_t type = leaf->types[pos];
  AddNodeDeltas(leaf, -DeltaOf(type));
  BumpCounters(type, -1);
  for (int i = pos; i + 1 < leaf->count; ++i) {
    leaf->sids[i] = leaf->sids[i + 1];
    leaf->types[i] = leaf->types[i + 1];
    leaf->values[i] = leaf->values[i + 1];
  }
  --leaf->count;
  if (leaf->count == 0 && leaf != root_) {
    LeafNode* nxt = leaf->next;
    if (leaf->prev != nullptr) leaf->prev->next = leaf->next;
    if (leaf->next != nullptr) leaf->next->prev = leaf->prev;
    if (first_leaf_ == leaf) first_leaf_ = leaf->next;
    if (last_leaf_ == leaf) last_leaf_ = leaf->prev;
    RemoveFromParent(leaf);
    delete leaf;
    --node_count_;
    if (nxt != nullptr) {
      c->leaf_ = nxt;
      c->pos_ = 0;
    } else {
      c->leaf_ = last_leaf_;
      c->pos_ = last_leaf_->count;  // parked at end
    }
    return;
  }
  if (pos == 0 && leaf->count > 0) UpdateMinSidUpward(leaf);
  if (pos >= leaf->count && leaf->next != nullptr) {
    c->leaf_ = leaf->next;
    c->pos_ = 0;
  } else {
    c->pos_ = pos;  // either a valid entry or parked at end
  }
}

// ---------------------------------------------------------------------
// Update operations (Algorithms 3-6).
// ---------------------------------------------------------------------

Status Pdt::AddInsert(Sid sid, Rid rid, const Tuple& tuple) {
  PDT_RETURN_NOT_OK(schema().ValidateTuple(tuple));
  Cursor c = DescendRightmostBySidRid(sid, rid);
  // Alg. 3 line 2: skip entries preceding the new insert.
  while (c.Valid() && (c.sid() < sid || c.rid() < rid)) c.Next();
  // The rightmost descent may overshoot into the middle of a run of
  // entries tied at (sid, rid) — e.g. a modify group spanning a leaf
  // boundary. Back up to the first entry of the tied run so the insert
  // does not split it.
  while (true) {
    Cursor p = c;
    if (!PrevCursor(&p)) break;
    if (p.sid() >= sid && p.rid() >= rid) {
      c = p;
    } else {
      break;
    }
  }
  int64_t new_sid = static_cast<int64_t>(rid) - c.delta_before();
  if (new_sid < 0) {
    return Status::InvalidArgument(StringPrintf(
        "insert rid %llu inconsistent with PDT deltas",
        static_cast<unsigned long long>(rid)));
  }
  uint64_t offset = value_space_.AddInsertTuple(tuple);
  InsertEntryAt(&c, static_cast<Sid>(new_sid), kTypeIns, offset);
  return Status::OK();
}

Status Pdt::AddModify(Rid rid, ColumnId col, const Value& v) {
  if (col >= schema().num_columns()) {
    return Status::InvalidArgument("modify: column out of range");
  }
  if (v.type() != schema().column(col).type) {
    return Status::InvalidArgument("modify: value type mismatch");
  }
  Cursor c = DescendRightmostByRid(rid);
  while (c.Valid() && c.rid() < rid) c.Next();
  // Alg. 4 line 3: ghosts sharing this RID cannot be modify targets.
  while (c.Valid() && c.rid() == rid && c.type() == kTypeDel) c.Next();
  if (c.Valid() && c.rid() == rid && c.type() == kTypeIns) {
    // The tuple at `rid` is a PDT insert: patch the insert space.
    value_space_.SetInsertColumn(c.value(), col, v);
    return Status::OK();
  }
  if (c.Valid() && c.rid() == rid && IsModifyType(c.type())) {
    Sid s = c.sid();
    // The modify group of this tuple may extend into preceding leaves.
    Cursor b = c;
    while (PrevCursor(&b) && IsModifyType(b.type()) && b.sid() == s) {
      if (b.type() == col) {
        value_space_.SetModifyValue(col, b.value(), v);
        return Status::OK();
      }
    }
    // Forward through the group; modify in place on a column match.
    while (c.Valid() && c.sid() == s && IsModifyType(c.type())) {
      if (c.type() == col) {
        value_space_.SetModifyValue(col, c.value(), v);
        return Status::OK();
      }
      c.Next();
    }
    // New column for this tuple: append a modify entry to the group.
    uint64_t offset = value_space_.AddModifyValue(col, v);
    InsertEntryAt(&c, s, static_cast<uint16_t>(col), offset);
    return Status::OK();
  }
  // Untouched stable tuple: fresh modify entry.
  uint64_t offset = value_space_.AddModifyValue(col, v);
  Sid s = static_cast<Sid>(static_cast<int64_t>(rid) - c.delta_before());
  InsertEntryAt(&c, s, static_cast<uint16_t>(col), offset);
  return Status::OK();
}

Status Pdt::AddDelete(Rid rid, const std::vector<Value>& sk_values) {
  Cursor c = DescendRightmostByRid(rid);
  while (c.Valid() && c.rid() < rid) c.Next();
  // Alg. 5 line 3: skip ghosts sharing this RID.
  while (c.Valid() && c.rid() == rid && c.type() == kTypeDel) c.Next();
  if (c.Valid() && c.rid() == rid && c.type() == kTypeIns) {
    // Deleting a tuple this PDT inserted: erase all trace of it. (The
    // insert-space row becomes a reclaimed-at-propagate hole.)
    RemoveEntryAt(&c);
    return Status::OK();
  }
  if (c.Valid() && c.rid() == rid && IsModifyType(c.type())) {
    // Deleting a stable tuple that has modify entries: remove them all
    // and replace with a single DEL.
    Sid s = c.sid();
    Cursor b = c;
    while (PrevCursor(&b) && IsModifyType(b.type()) && b.sid() == s) {
      c = b;
    }
    while (c.Valid() && c.sid() == s && IsModifyType(c.type())) {
      RemoveEntryAt(&c);
    }
    uint64_t offset = value_space_.AddDeleteKey(sk_values);
    InsertEntryAt(&c, s, kTypeDel, offset);
    return Status::OK();
  }
  if (sk_values.size() != schema().sort_key().size()) {
    return Status::InvalidArgument("delete: sort key arity mismatch");
  }
  uint64_t offset = value_space_.AddDeleteKey(sk_values);
  Sid s = static_cast<Sid>(static_cast<int64_t>(rid) - c.delta_before());
  InsertEntryAt(&c, s, kTypeDel, offset);
  return Status::OK();
}

Sid Pdt::SKRidToSid(const std::vector<Value>& sk, Rid rid) const {
  Cursor c = DescendRightmostByRid(rid);
  while (c.Valid() && c.rid() < rid) c.Next();
  // The rightmost descent may land mid-way into the ghost chain at `rid`
  // when it spans a leaf boundary; rewind to the chain start so every
  // ghost's key is compared.
  while (true) {
    Cursor p = c;
    if (!PrevCursor(&p)) break;
    if (p.rid() >= rid) {
      c = p;
    } else {
      break;
    }
  }
  // Alg. 6 line 3: advance past ghosts whose key precedes `sk`, so the
  // insert lands in SK order relative to deleted stable tuples.
  while (c.Valid() && c.rid() == rid && c.type() == kTypeDel &&
         value_space_.CompareDeleteKeyToKey(c.value(), sk) < 0) {
    c.Next();
  }
  return static_cast<Sid>(static_cast<int64_t>(rid) - c.delta_before());
}

Pdt::RidLookup Pdt::LookupRid(Rid rid) const {
  RidLookup out;
  Cursor c = DescendRightmostByRid(rid);
  while (c.Valid() && c.rid() < rid) c.Next();
  while (c.Valid() && c.rid() == rid && c.type() == kTypeDel) c.Next();
  if (c.Valid() && c.rid() == rid && c.type() == kTypeIns) {
    out.is_insert = true;
    out.insert_offset = c.value();
    return out;
  }
  if (c.Valid() && c.rid() == rid && IsModifyType(c.type())) {
    Sid s = c.sid();
    out.sid = s;
    Cursor b = c;
    while (PrevCursor(&b) && IsModifyType(b.type()) && b.sid() == s) {
      out.mods.emplace_back(static_cast<ColumnId>(b.type()), b.value());
    }
    while (c.Valid() && c.sid() == s && IsModifyType(c.type())) {
      out.mods.emplace_back(static_cast<ColumnId>(c.type()), c.value());
      c.Next();
    }
    return out;
  }
  out.sid = static_cast<Sid>(static_cast<int64_t>(rid) - c.delta_before());
  return out;
}

// ---------------------------------------------------------------------
// Flatten / bulk build.
// ---------------------------------------------------------------------

std::vector<UpdateEntry> Pdt::Flatten() const {
  std::vector<UpdateEntry> out;
  out.reserve(entry_count_);
  for (Cursor c = Begin(); c.Valid(); c.Next()) out.push_back(c.entry());
  return out;
}

Status Pdt::BuildFromSorted(const std::vector<UpdateEntry>& entries) {
  ClearTree();
  if (entries.empty()) return Status::OK();
  // Leaf level.
  std::vector<NodeHeader*> level;
  delete static_cast<LeafNode*>(root_);  // discard the fresh empty root
  node_count_ = 0;
  first_leaf_ = last_leaf_ = nullptr;
  LeafNode* prev = nullptr;
  for (size_t i = 0; i < entries.size(); i += kFanout) {
    auto* leaf = new LeafNode();
    ++node_count_;
    int n = static_cast<int>(std::min<size_t>(kFanout, entries.size() - i));
    for (int k = 0; k < n; ++k) {
      const UpdateEntry& e = entries[i + k];
      leaf->sids[k] = e.sid;
      leaf->types[k] = e.type;
      leaf->values[k] = e.value;
      BumpCounters(e.type, +1);
    }
    leaf->count = static_cast<int16_t>(n);
    leaf->prev = prev;
    if (prev != nullptr) {
      prev->next = leaf;
    } else {
      first_leaf_ = leaf;
    }
    prev = leaf;
    level.push_back(leaf);
  }
  last_leaf_ = prev;
  // Internal levels.
  while (level.size() > 1) {
    std::vector<NodeHeader*> next;
    for (size_t i = 0; i < level.size(); i += kFanout) {
      auto* in = new InternNode();
      ++node_count_;
      in->is_leaf = false;
      int n = static_cast<int>(std::min<size_t>(kFanout, level.size() - i));
      for (int k = 0; k < n; ++k) {
        NodeHeader* child = level[i + k];
        in->children[k] = child;
        in->min_sids[k] = SubtreeMinSid(child);
        in->deltas[k] = SubtreeDelta(child);
        child->parent = in;
        child->pos_in_parent = static_cast<int16_t>(k);
      }
      in->count = static_cast<int16_t>(n);
      next.push_back(in);
    }
    level = std::move(next);
  }
  root_ = level[0];
  root_->parent = nullptr;
  root_->pos_in_parent = 0;
  return Status::OK();
}

size_t Pdt::MemoryBytes() const {
  // Upper-bound estimate: every node charged at the larger node size.
  constexpr size_t kNodeBytes =
      sizeof(InternNode) > sizeof(LeafNode) ? sizeof(InternNode)
                                            : sizeof(LeafNode);
  return node_count_ * kNodeBytes + value_space_.MemoryBytes();
}

// ---------------------------------------------------------------------
// Invariant checking / debugging.
// ---------------------------------------------------------------------

int Pdt::LeafDepth() const {
  int d = 0;
  const NodeHeader* n = root_;
  while (!n->is_leaf) {
    n = static_cast<const InternNode*>(n)->children[0];
    ++d;
  }
  return d;
}

Status Pdt::CheckSubtree(const NodeHeader* node, size_t* entries_seen,
                         int depth, int leaf_depth,
                         int64_t* deep_delta) const {
  if (node->is_leaf) {
    const auto* leaf = static_cast<const LeafNode*>(node);
    if (depth != leaf_depth) return Status::Corruption("ragged leaf depth");
    if (leaf != root_ && leaf->count == 0) {
      return Status::Corruption("empty non-root leaf");
    }
    if (leaf->count > kFanout) {
      return Status::Corruption("overfull leaf");
    }
    for (int i = 1; i < leaf->count; ++i) {
      if (leaf->sids[i] < leaf->sids[i - 1]) {
        return Status::Corruption("leaf SIDs not non-decreasing");
      }
    }
    *entries_seen += leaf->count;
    *deep_delta = SubtreeDelta(leaf);
    return Status::OK();
  }
  const auto* in = static_cast<const InternNode*>(node);
  if (in->count < 1 || in->count > kFanout) {
    return Status::Corruption("bad internal node count");
  }
  int64_t total = 0;
  for (int i = 0; i < in->count; ++i) {
    const NodeHeader* child = in->children[i];
    if (child->parent != in || child->pos_in_parent != i) {
      return Status::Corruption("bad parent linkage");
    }
    if (in->min_sids[i] != SubtreeMinSid(child)) {
      return Status::Corruption("separator min-SID mismatch");
    }
    if (i > 0 && in->min_sids[i] < in->min_sids[i - 1]) {
      return Status::Corruption("separators not non-decreasing");
    }
    int64_t deep = 0;
    PDT_RETURN_NOT_OK(
        CheckSubtree(child, entries_seen, depth + 1, leaf_depth, &deep));
    // The cached per-child delta must equal the true subtree sum: this is
    // the invariant that makes RID<->SID mapping correct (Sec. 2.1).
    if (in->deltas[i] != deep) {
      return Status::Corruption(StringPrintf(
          "delta mismatch: cached %lld true %lld",
          static_cast<long long>(in->deltas[i]),
          static_cast<long long>(deep)));
    }
    total += deep;
  }
  *deep_delta = total;
  return Status::OK();
}

Status Pdt::CheckInvariants() const {
  size_t seen = 0;
  int64_t deep = 0;
  PDT_RETURN_NOT_OK(CheckSubtree(root_, &seen, 0, LeafDepth(), &deep));
  if (seen != entry_count_) {
    return Status::Corruption("entry count mismatch");
  }
  // Flat-order checks: (SID,RID) ordering and chain shapes.
  int64_t delta = 0;
  bool have_prev = false;
  Sid prev_sid = 0;
  Rid prev_rid = 0;
  uint16_t prev_type = 0;
  size_t ins = 0, del = 0;
  for (Cursor c = Begin(); c.Valid(); c.Next()) {
    if (c.delta_before() != delta) {
      return Status::Corruption("cursor delta drift");
    }
    Sid sid = c.sid();
    Rid rid = c.rid();
    uint16_t type = c.type();
    if (have_prev) {
      if (sid < prev_sid) return Status::Corruption("SID order violated");
      if (rid < prev_rid) return Status::Corruption("RID order violated");
      if (sid == prev_sid && prev_type != kTypeIns) {
        // Cor. 3 (generalized to per-column modify entries): within an
        // equal-SID chain every non-final entry is an INS, except inside
        // a modify group (same tuple, different columns).
        if (!(IsModifyType(prev_type) && IsModifyType(type))) {
          return Status::Corruption("equal-SID chain shape violated");
        }
      }
      if (rid == prev_rid && prev_type != kTypeDel) {
        // Cor. 4, same generalization.
        if (!(IsModifyType(prev_type) && IsModifyType(type))) {
          return Status::Corruption("equal-RID chain shape violated");
        }
      }
      if (sid == prev_sid && rid == prev_rid) {
        // Theorem 1: only modify-group members may share (SID, RID), and
        // then only for distinct columns.
        if (!(IsModifyType(prev_type) && IsModifyType(type) &&
              prev_type != type)) {
          return Status::Corruption("(SID,RID) uniqueness violated");
        }
      }
    }
    // Value-space offset bounds.
    if (type == kTypeIns) {
      ++ins;
      if (c.value() >= value_space_.insert_count()) {
        return Status::Corruption("insert offset out of range");
      }
    } else if (type == kTypeDel) {
      ++del;
      if (c.value() >= value_space_.delete_count()) {
        return Status::Corruption("delete offset out of range");
      }
    }
    delta += DeltaOf(type);
    prev_sid = sid;
    prev_rid = rid;
    prev_type = type;
    have_prev = true;
  }
  if (ins != insert_count_ || del != delete_count_) {
    return Status::Corruption("type counters out of sync");
  }
  if (delta != TotalDelta()) {
    return Status::Corruption("total delta out of sync");
  }
  return Status::OK();
}

std::string Pdt::DebugString() const {
  std::string out = StringPrintf("PDT(entries=%zu ins=%zu del=%zu mod=%zu)",
                                 entry_count_, insert_count_, delete_count_,
                                 ModifyCount());
  out += " [";
  bool first = true;
  for (Cursor c = Begin(); c.Valid(); c.Next()) {
    if (!first) out += " ";
    first = false;
    out += UpdateEntryToString(c.entry());
    out += StringPrintf("/r%llu", static_cast<unsigned long long>(c.rid()));
  }
  out += "]";
  return out;
}

}  // namespace pdtstore
