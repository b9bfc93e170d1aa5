// Interactive mini-shell over pdtstore: create ordered tables, run
// updates through the PDT, scan merged images, inspect the PDT state and
// checkpoint — a REPL for exploring positional update handling.
//
//   $ ./example_shell
//   pdt> create products category:str name:str price:int key category,name
//   pdt> insert products chairs stool 29
//   pdt> select products
//   pdt> pdt products
//   pdt> checkpoint products
//   pdt> help
//
// Commands read whitespace-separated tokens; string values are bare
// words, integer columns parse as int64 and dbl columns as double. A
// malformed or out-of-range number is an error, never a silent 0.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/workload.h"
#include "tpch/htap_driver.h"  // LatencyPercentile
#include "util/stopwatch.h"

using namespace pdtstore;

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string t;
  while (in >> t) tokens.push_back(t);
  return tokens;
}

// Parses all of `text` as a base-10 integer in [lo, hi]; false on an
// empty string, trailing junk, overflow or a value out of range.
bool ParseInt(const std::string& text, long long lo, long long hi,
              long long* out) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < lo ||
      v > hi) {
    return false;
  }
  *out = v;
  return true;
}

StatusOr<Value> ParseValue(const Schema& schema, ColumnId col,
                           const std::string& text) {
  switch (schema.column(col).type) {
    case TypeId::kInt64: {
      long long v = 0;
      if (!ParseInt(text, LLONG_MIN, LLONG_MAX, &v)) {
        return Status::InvalidArgument("not an integer: " + text);
      }
      return Value(static_cast<int64_t>(v));
    }
    case TypeId::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("not a number: " + text);
      }
      return Value(v);
    }
    case TypeId::kString:
      return Value(text);
  }
  return Status::InvalidArgument("unknown type");
}

StatusOr<std::vector<Value>> ParseKey(const Schema& schema,
                                      const std::vector<std::string>& tokens,
                                      size_t from) {
  const auto& sk = schema.sort_key();
  if (tokens.size() - from != sk.size()) {
    return Status::InvalidArgument("expected one value per key column");
  }
  std::vector<Value> key;
  for (size_t i = 0; i < sk.size(); ++i) {
    PDT_ASSIGN_OR_RETURN(Value v,
                         ParseValue(schema, sk[i], tokens[from + i]));
    key.push_back(std::move(v));
  }
  return key;
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  create <table> <name:type>... key <col>[,<col>...]   type: str|int|dbl\n"
      "  load <table> <ntuples-of-values...>   bulk rows, row-major\n"
      "  insert <table> <value>...\n"
      "  delete <table> <key-value>...\n"
      "  modify <table> <column-name> <new-value> <key-value>...\n"
      "  select <table>            scan the merged image\n"
      "  count  <table>\n"
      "  pdt    <table>            dump the PDT / delta state\n"
      "  io                        buffer-pool statistics\n"
      "  checkpoint <table>\n"
      "  tables\n"
      "  .threads [N]              scan worker threads for select\n"
      "                            (1 = serial; shows current when bare)\n"
      "  .workload [C [MB]]        admission control: C concurrent queries,\n"
      "                            optional per-query memory cap in MiB\n"
      "                            (bare shows the current configuration)\n"
      "  .open <dir>               open (or create) a persistent database;\n"
      "                            replays its WAL and continues where it left off\n"
      "  .save                     durable checkpoint of the open database\n"
      "                            (atomic manifest swap, then WAL truncation)\n"
      "  .stats                    write-path statistics: per-table PDT layer\n"
      "                            sizes, pending deltas, WAL syncs/txn,\n"
      "                            buffer-pool I/O counters, workload manager\n"
      "                            counters, and this shell's reader/writer\n"
      "                            latency\n"
      "  help | quit\n");
}

class Shell {
 public:
  int Run() {
    std::printf("pdtstore shell — 'help' for commands\n");
    std::string line;
    while (true) {
      std::printf("pdt> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      auto tokens = Tokenize(line);
      if (tokens.empty()) continue;
      if (tokens[0] == "quit" || tokens[0] == "exit") break;
      Status st = Dispatch(tokens);
      if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
    }
    return 0;
  }

 private:
  Status Dispatch(const std::vector<std::string>& t) {
    const std::string& cmd = t[0];
    if (cmd == "help") {
      PrintHelp();
      return Status::OK();
    }
    if (cmd == "tables") {
      for (const auto& name : db_->TableNames()) {
        Table* tbl = *db_->GetTable(name);
        std::printf("  %s(%s)  rows=%llu delta=%zu entries\n", name.c_str(),
                    tbl->schema().ToString().c_str(),
                    static_cast<unsigned long long>(tbl->RowCount()),
                    tbl->pdt() ? tbl->pdt()->EntryCount() : 0);
      }
      return Status::OK();
    }
    if (cmd == ".threads") {
      if (t.size() < 2) {
        std::printf("  threads=%d (hardware: %d)\n", threads_,
                    ThreadPool::DefaultThreads());
        return Status::OK();
      }
      long long v = 0;
      if (!ParseInt(t[1], 1, 256, &v)) {
        return Status::InvalidArgument("usage: .threads <1..256>");
      }
      threads_ = static_cast<int>(v);
      std::printf("  threads=%d%s\n", threads_,
                  threads_ > 1 ? " (selects run the parallel pipeline)"
                               : " (serial)");
      return Status::OK();
    }
    if (cmd == ".workload") {
      WorkloadManager& wm = WorkloadManager::Global();
      if (t.size() < 2) {
        const WorkloadOptions& o = wm.options();
        std::printf("  max_concurrent=%d (0 = 2x hardware) "
                    "per_query_cap=%zu MiB (0 = uncapped)\n",
                    o.max_concurrent, o.per_query_memory_cap >> 20);
        return Status::OK();
      }
      // C must fit an int and MB << 20 must fit a size_t.
      long long c = 0;
      long long mb = 0;
      if (!ParseInt(t[1], 0, INT_MAX, &c) ||
          (t.size() > 2 &&
           !ParseInt(t[2], 0, static_cast<long long>(SIZE_MAX >> 20), &mb))) {
        return Status::InvalidArgument("usage: .workload [C [MB]]");
      }
      WorkloadOptions o = wm.options();
      o.max_concurrent = static_cast<int>(c);
      if (t.size() > 2) o.per_query_memory_cap = static_cast<size_t>(mb) << 20;
      wm.Configure(o);
      std::printf("  workload reconfigured\n");
      return Status::OK();
    }
    if (cmd == ".open") {
      if (t.size() != 2) return Status::InvalidArgument("usage: .open <dir>");
      PDT_ASSIGN_OR_RETURN(auto db, Database::Open(t[1]));
      db_ = std::move(db);
      if (db_->read_only()) {
        std::printf("  WARNING: opened read-only: %s\n",
                    db_->recovery_status().ToString().c_str());
      }
      std::printf("  opened %s (%zu tables, wal txn frames=%zu)\n",
                  t[1].c_str(), db_->TableNames().size(),
                  db_->wal() != nullptr ? db_->wal()->RecordCount() : 0);
      return Status::OK();
    }
    if (cmd == ".save") {
      PDT_RETURN_NOT_OK(db_->Save());
      std::printf("  checkpoint committed\n");
      return Status::OK();
    }
    if (cmd == ".stats") {
      for (const auto& name : db_->TableNames()) {
        Table* tbl = *db_->GetTable(name);
        TxnManager* mgr = db_->FindTxn(name);
        if (mgr == nullptr) {
          // No transactions ran against this table yet.
          std::printf("  %-16s read_pdt=%zu (no transaction manager)\n",
                      name.c_str(),
                      tbl->pdt() != nullptr ? tbl->pdt()->EntryCount() : 0);
          continue;
        }
        TxnManagerStats s = mgr->GetStats();
        std::printf(
            "  %-16s read_pdt=%zu write_pdt=%zu\n"
            "    txns: committed=%llu aborted=%llu active=%zu\n"
            "    write path: pending_deltas=%zu fold_batches=%llu "
            "folded=%llu read_folds=%llu lock_us/commit=%.2f\n",
            name.c_str(), s.read_pdt_entries, s.write_pdt_entries,
            static_cast<unsigned long long>(s.committed),
            static_cast<unsigned long long>(s.aborted), s.active,
            s.pending_deltas,
            static_cast<unsigned long long>(s.fold_batches),
            static_cast<unsigned long long>(s.folded_records),
            static_cast<unsigned long long>(s.background_merges),
            s.committed > 0
                ? static_cast<double>(s.commit_lock_ns) / 1e3 /
                      static_cast<double>(s.committed)
                : 0.0);
        if (s.wal_records > 0 || s.wal_syncs > 0) {
          const uint64_t txns = s.committed + s.aborted;
          std::printf("    wal: txn_frames=%llu syncs=%llu syncs/txn=%.3f\n",
                      static_cast<unsigned long long>(s.wal_records),
                      static_cast<unsigned long long>(s.wal_syncs),
                      txns > 0 ? static_cast<double>(s.wal_syncs) /
                                     static_cast<double>(txns)
                               : 0.0);
        }
      }
      const IoStats& io = db_->io_stats();
      std::printf("  buffer pool: bytes_read=%llu chunks_read=%llu "
                  "hits=%llu decode_ns=%llu\n",
                  static_cast<unsigned long long>(io.bytes_read),
                  static_cast<unsigned long long>(io.chunks_read),
                  static_cast<unsigned long long>(io.hits),
                  static_cast<unsigned long long>(io.decode_ns));
      WorkloadStats ws = WorkloadManager::Global().GetStats();
      std::printf("  workload: admitted=%llu completed=%llu rejected=%llu "
                  "active=%llu queued=%llu (peak %llu)\n"
                  "    memory: used=%zu peak=%zu cap=%s\n",
                  static_cast<unsigned long long>(ws.admitted),
                  static_cast<unsigned long long>(ws.completed),
                  static_cast<unsigned long long>(ws.rejected),
                  static_cast<unsigned long long>(ws.active),
                  static_cast<unsigned long long>(ws.queued),
                  static_cast<unsigned long long>(ws.queued_peak),
                  ws.memory_used, ws.memory_peak,
                  ws.memory_cap > 0 ? std::to_string(ws.memory_cap).c_str()
                                    : "unlimited");
      PrintLatency("reads (select/count)", read_lat_ms_);
      PrintLatency("writes (commits)", write_lat_ms_);
      return Status::OK();
    }
    if (cmd == "io") {
      const IoStats& io = db_->io_stats();
      std::printf("  bytes_read=%llu chunks_read=%llu hits=%llu "
                  "decode_ns=%llu\n",
                  static_cast<unsigned long long>(io.bytes_read),
                  static_cast<unsigned long long>(io.chunks_read),
                  static_cast<unsigned long long>(io.hits),
                  static_cast<unsigned long long>(io.decode_ns));
      return Status::OK();
    }
    if (t.size() < 2) return Status::InvalidArgument("missing table name");
    if (cmd == "create") return Create(t);
    PDT_ASSIGN_OR_RETURN(Table * table, db_->GetTable(t[1]));
    // End-to-end command latency, recorded per side so `.stats` can
    // show the HTAP picture: reads (scans) against writes (commits).
    auto timed = [](std::vector<double>* lat, auto&& fn) {
      Stopwatch sw;
      Status st = fn();
      if (st.ok()) lat->push_back(sw.ElapsedMillis());
      return st;
    };
    if (cmd == "load") {
      return timed(&write_lat_ms_, [&] { return Load(table, t); });
    }
    if (cmd == "insert") {
      return timed(&write_lat_ms_, [&] { return Insert(table, t); });
    }
    if (cmd == "delete") {
      return timed(&write_lat_ms_, [&] { return Delete(table, t); });
    }
    if (cmd == "modify") {
      return timed(&write_lat_ms_, [&] { return Modify(table, t); });
    }
    if (cmd == "select") {
      return timed(&read_lat_ms_, [&] { return Select(table); });
    }
    if (cmd == "count") {
      return timed(&read_lat_ms_, [&] {
        std::printf("  %llu\n",
                    static_cast<unsigned long long>(table->RowCount()));
        return Status::OK();
      });
    }
    if (cmd == "pdt") {
      if (table->pdt() == nullptr) {
        return Status::InvalidArgument("table uses the VDT backend");
      }
      std::printf("  %s\n  memory=%zu bytes, delta=%lld\n",
                  table->pdt()->DebugString().c_str(),
                  table->pdt()->MemoryBytes(),
                  static_cast<long long>(table->pdt()->TotalDelta()));
      return Status::OK();
    }
    if (cmd == "checkpoint") {
      PDT_RETURN_NOT_OK(table->Checkpoint());
      std::printf("  checkpointed; stable rows=%llu\n",
                  static_cast<unsigned long long>(table->RowCount()));
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command: " + cmd);
  }

  Status Create(const std::vector<std::string>& t) {
    std::vector<ColumnDef> cols;
    std::vector<ColumnId> sk;
    size_t i = 2;
    for (; i < t.size() && t[i] != "key"; ++i) {
      size_t colon = t[i].find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("column must be name:type");
      }
      std::string name = t[i].substr(0, colon);
      std::string type = t[i].substr(colon + 1);
      TypeId tid;
      if (type == "str") {
        tid = TypeId::kString;
      } else if (type == "int") {
        tid = TypeId::kInt64;
      } else if (type == "dbl") {
        tid = TypeId::kDouble;
      } else {
        return Status::InvalidArgument("unknown type: " + type);
      }
      cols.push_back({name, tid});
    }
    if (i + 1 >= t.size() || t[i] != "key") {
      return Status::InvalidArgument("missing 'key <cols>'");
    }
    // Parse comma-separated key column names.
    std::istringstream keys(t[i + 1]);
    std::string k;
    PDT_ASSIGN_OR_RETURN(Schema parsed, Schema::Make(cols, {0}));
    (void)parsed;  // name lookup needs a schema; build after resolving
    while (std::getline(keys, k, ',')) {
      bool found = false;
      for (ColumnId c = 0; c < cols.size(); ++c) {
        if (cols[c].name == k) {
          sk.push_back(c);
          found = true;
        }
      }
      if (!found) return Status::InvalidArgument("no key column " + k);
    }
    PDT_ASSIGN_OR_RETURN(Schema schema, Schema::Make(cols, sk));
    PDT_ASSIGN_OR_RETURN(
        Table * table,
        db_->CreateTable(t[1],
                        std::make_shared<const Schema>(std::move(schema))));
    // Start usable immediately: load an empty stable image.
    PDT_RETURN_NOT_OK(table->Load({}));
    std::printf("  created %s(%s)\n", t[1].c_str(),
                table->schema().ToString().c_str());
    return Status::OK();
  }

  // On a persistent database, updates run as WAL-logged transactions so
  // they survive a crash (durable at commit, not just at `.save`); an
  // in-memory database takes the direct path.
  Status Transactional(Table* table,
                       const std::function<Status(Transaction*)>& fn) {
    PDT_ASSIGN_OR_RETURN(TxnManager * mgr, db_->Txn(table->name()));
    auto txn = mgr->Begin();
    PDT_RETURN_NOT_OK(fn(txn.get()));
    return txn->Commit();
  }

  bool UseTxnPath(const Table* table) const {
    return db_->persistent() && table->pdt() != nullptr;
  }

  Status Load(Table* table, const std::vector<std::string>& t) {
    size_t ncols = table->schema().num_columns();
    if ((t.size() - 2) % ncols != 0) {
      return Status::InvalidArgument("value count not a multiple of arity");
    }
    std::vector<Tuple> tuples;
    for (size_t pos = 2; pos + ncols <= t.size(); pos += ncols) {
      Tuple tuple;
      for (ColumnId c = 0; c < ncols; ++c) {
        PDT_ASSIGN_OR_RETURN(Value v,
                             ParseValue(table->schema(), c, t[pos + c]));
        tuple.push_back(std::move(v));
      }
      tuples.push_back(std::move(tuple));
    }
    if (UseTxnPath(table)) {
      // One transaction (and one fsync) for the whole batch.
      PDT_RETURN_NOT_OK(Transactional(table, [&](Transaction* txn) {
        for (const Tuple& tuple : tuples) {
          PDT_RETURN_NOT_OK(txn->Insert(tuple));
        }
        return Status::OK();
      }));
    } else {
      for (const Tuple& tuple : tuples) {
        PDT_RETURN_NOT_OK(table->Insert(tuple));
      }
    }
    std::printf("  inserted %zu rows\n", tuples.size());
    return Status::OK();
  }

  Status Insert(Table* table, const std::vector<std::string>& t) {
    if (t.size() - 2 != table->schema().num_columns()) {
      return Status::InvalidArgument("expected one value per column");
    }
    Tuple tuple;
    for (ColumnId c = 0; c < table->schema().num_columns(); ++c) {
      PDT_ASSIGN_OR_RETURN(Value v,
                           ParseValue(table->schema(), c, t[2 + c]));
      tuple.push_back(std::move(v));
    }
    if (UseTxnPath(table)) {
      return Transactional(
          table, [&](Transaction* txn) { return txn->Insert(tuple); });
    }
    return table->Insert(tuple);
  }

  Status Delete(Table* table, const std::vector<std::string>& t) {
    PDT_ASSIGN_OR_RETURN(auto key, ParseKey(table->schema(), t, 2));
    if (UseTxnPath(table)) {
      return Transactional(
          table, [&](Transaction* txn) { return txn->DeleteByKey(key); });
    }
    return table->DeleteByKey(key);
  }

  Status Modify(Table* table, const std::vector<std::string>& t) {
    if (t.size() < 5) {
      return Status::InvalidArgument(
          "usage: modify <table> <col> <value> <key...>");
    }
    PDT_ASSIGN_OR_RETURN(ColumnId col, table->schema().ColumnIndex(t[2]));
    PDT_ASSIGN_OR_RETURN(Value v, ParseValue(table->schema(), col, t[3]));
    PDT_ASSIGN_OR_RETURN(auto key, ParseKey(table->schema(), t, 4));
    if (UseTxnPath(table)) {
      return Transactional(table, [&](Transaction* txn) {
        return txn->ModifyByKey(key, col, v);
      });
    }
    return table->ModifyByKey(key, col, v);
  }

  Status Select(Table* table) {
    // Every select runs as an admitted query: it waits its FIFO turn
    // when the shell's workload cap is saturated, and its scan/operator
    // memory is charged to a per-query budget.
    PDT_ASSIGN_OR_RETURN(auto ticket,
                         WorkloadManager::Global().Admit("shell-select"));
    ScopedQuery scope(ticket);
    std::vector<ColumnId> all(table->schema().num_columns());
    for (ColumnId c = 0; c < all.size(); ++c) all[c] = c;
    // `.threads N` (N > 1) exercises the morsel-driven parallel scan,
    // which delivers batches as they complete. The sort key is unique,
    // so sorting by it prints the serial sequence.
    ScanOptions opts;
    opts.num_threads = threads_;
    auto scan = table->Scan(all, nullptr, opts);
    PDT_ASSIGN_OR_RETURN(auto rows, CollectRows(scan.get()));
    if (threads_ > 1) {
      const Schema& schema = table->schema();
      std::sort(rows.begin(), rows.end(),
                [&](const Tuple& a, const Tuple& b) {
                  return schema.CompareSortKey(a, b) < 0;
                });
    }
    for (const auto& row : rows) {
      std::printf("  %s\n", TupleToString(row).c_str());
    }
    std::printf("  (%zu rows)\n", rows.size());
    return Status::OK();
  }

  static void PrintLatency(const char* label,
                           const std::vector<double>& samples) {
    if (samples.empty()) {
      std::printf("  %s: none yet\n", label);
      return;
    }
    double sum = 0;
    for (double v : samples) sum += v;
    std::vector<double> sorted = samples;  // percentile sorts in place
    std::printf("  %s: n=%zu avg=%.3fms p50=%.3fms p99=%.3fms\n", label,
                samples.size(), sum / static_cast<double>(samples.size()),
                tpch::LatencyPercentile(&sorted, 0.50),
                tpch::LatencyPercentile(&sorted, 0.99));
  }

  std::unique_ptr<Database> db_ = std::make_unique<Database>();
  int threads_ = 1;
  // This session's command latencies (successful commands only).
  std::vector<double> read_lat_ms_, write_lat_ms_;
};

}  // namespace

int main() { return Shell().Run(); }
