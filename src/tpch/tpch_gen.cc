#include "tpch/tpch_gen.h"

#include <algorithm>

namespace pdtstore {
namespace tpch {

namespace {

const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipmodes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "MACHINERY", "HOUSEHOLD"};
const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                         "ECONOMY", "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"};
const char* kNames[] = {"almond", "antique", "aquamarine", "azure",
                        "beige",  "bisque",  "black",      "blanched",
                        "blue",   "blush",   "brown",      "burlywood",
                        "green",  "forest",  "chiffon",    "chocolate"};
const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",     "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",      "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",     "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",      "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES"};

int64_t CustomerCount(double sf) {
  return std::max<int64_t>(100, static_cast<int64_t>(150000 * sf));
}
int64_t PartCount(double sf) {
  return std::max<int64_t>(200, static_cast<int64_t>(200000 * sf));
}
int64_t SupplierCount(double sf) {
  return std::max<int64_t>(25, static_cast<int64_t>(10000 * sf));
}

}  // namespace

int64_t OrderCountFor(const GenOptions& gen) {
  return std::max<int64_t>(64,
                           static_cast<int64_t>(1500000 * gen.scale_factor));
}

GeneratedOrder MakeOrder(int64_t orderkey, Random* rng,
                         double scale_factor) {
  GeneratedOrder out;
  int64_t odate = rng->UniformRange(kMinDate, kMaxDate - 151);
  // dbgen gives no orders to customers whose key is divisible by 3 (Q22
  // counts exactly those): draw k over the other keys and map it to the
  // k-th key not divisible by 3. Still one draw, so every later value of
  // the order is unchanged.
  const int64_t customers = CustomerCount(scale_factor);
  const int64_t k = rng->UniformRange(1, customers - customers / 3);
  const int64_t custkey = k + (k - 1) / 2;
  int nlines = static_cast<int>(rng->UniformRange(1, 7));
  double total = 0;
  for (int ln = 1; ln <= nlines; ++ln) {
    int64_t partkey = rng->UniformRange(1, PartCount(scale_factor));
    int64_t suppkey = rng->UniformRange(1, SupplierCount(scale_factor));
    double qty = static_cast<double>(rng->UniformRange(1, 50));
    double price = qty * (900.0 + static_cast<double>(partkey % 1000));
    double discount = static_cast<double>(rng->UniformRange(0, 10)) / 100.0;
    double tax = static_cast<double>(rng->UniformRange(0, 8)) / 100.0;
    int64_t shipdate = odate + rng->UniformRange(1, 121);
    int64_t commitdate = odate + rng->UniformRange(30, 90);
    int64_t receiptdate = shipdate + rng->UniformRange(1, 30);
    // Return flag / line status per the TPC-H rules' spirit: old receipts
    // returned or accepted, recent lines still open.
    std::string rflag = receiptdate <= DayNumber(1995, 6, 17)
                            ? (rng->Bernoulli(0.5) ? "R" : "A")
                            : "N";
    std::string lstatus =
        shipdate > DayNumber(1995, 6, 17) ? "O" : "F";
    std::string shipmode = kShipmodes[rng->Uniform(7)];
    total += price * (1.0 - discount) * (1.0 + tax);
    out.lineitems.push_back({orderkey, partkey, suppkey, int64_t{ln}, qty,
                             price, discount, tax, rflag, lstatus, shipdate,
                             commitdate, receiptdate, shipmode});
  }
  std::string status = rng->Bernoulli(0.5) ? "F" : "O";
  out.order = {odate,
               orderkey,
               custkey,
               status,
               total,
               std::string(kPriorities[rng->Uniform(5)]),
               rng->UniformRange(0, 1)};
  return out;
}

StatusOr<TpchTables> GenerateInto(Database* db, const GenOptions& gen,
                                  const TableOptions& table_options) {
  Random rng(gen.seed);
  TpchTables tables;
  PDT_ASSIGN_OR_RETURN(
      tables.lineitem,
      db->CreateTable("lineitem", LineitemSchema(), table_options));
  PDT_ASSIGN_OR_RETURN(
      tables.orders, db->CreateTable("orders", OrdersSchema(), table_options));
  PDT_ASSIGN_OR_RETURN(
      tables.customer,
      db->CreateTable("customer", CustomerSchema(), table_options));
  PDT_ASSIGN_OR_RETURN(
      tables.part, db->CreateTable("part", PartSchema(), table_options));
  PDT_ASSIGN_OR_RETURN(
      tables.supplier,
      db->CreateTable("supplier", SupplierSchema(), table_options));
  PDT_ASSIGN_OR_RETURN(
      tables.nation, db->CreateTable("nation", NationSchema(), table_options));

  // Orders + lineitems. The key space is left with holes so refresh
  // inserts (UpdateStream) scatter through the clustered tables.
  const int64_t order_count = OrderCountFor(gen);
  const int keys_per_32 =
      std::clamp(static_cast<int>(32 * (1.0 - gen.hole_fraction)), 1, 32);
  std::vector<GeneratedOrder> orders;
  orders.reserve(order_count);
  int64_t key = 0;
  while (static_cast<int64_t>(orders.size()) < order_count) {
    ++key;
    if ((key % 32) >= keys_per_32) continue;  // hole for refresh inserts
    // Per-order RNG keyed by orderkey: any order (incl. refresh-stream
    // deletions) can be regenerated independently and deterministically.
    Random order_rng(gen.seed * 0x9e3779b97f4a7c15ULL + key);
    orders.push_back(MakeOrder(key, &order_rng, gen.scale_factor));
  }
  // orders clustered by (o_orderdate, o_orderkey).
  {
    std::vector<Tuple> rows;
    rows.reserve(orders.size());
    for (const auto& o : orders) rows.push_back(o.order);
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      if (a[kOOrderdate].AsInt64() != b[kOOrderdate].AsInt64()) {
        return a[kOOrderdate].AsInt64() < b[kOOrderdate].AsInt64();
      }
      return a[kOOrderkey].AsInt64() < b[kOOrderkey].AsInt64();
    });
    PDT_RETURN_NOT_OK(tables.orders->Load(rows));
  }
  // lineitem clustered by (l_orderkey, l_linenumber): generation order is
  // already ascending in orderkey.
  {
    std::vector<Tuple> rows;
    for (const auto& o : orders) {
      for (const auto& l : o.lineitems) rows.push_back(l);
    }
    PDT_RETURN_NOT_OK(tables.lineitem->Load(rows));
  }
  // Dimensions.
  {
    std::vector<Tuple> rows;
    int64_t n = CustomerCount(gen.scale_factor);
    for (int64_t i = 1; i <= n; ++i) {
      rows.push_back({i, "Customer#" + std::to_string(i),
                      rng.UniformRange(0, 24),
                      static_cast<double>(rng.UniformRange(-999, 9999)),
                      std::string(kSegments[rng.Uniform(5)])});
    }
    PDT_RETURN_NOT_OK(tables.customer->Load(rows));
  }
  {
    std::vector<Tuple> rows;
    int64_t n = PartCount(gen.scale_factor);
    for (int64_t i = 1; i <= n; ++i) {
      std::string name = std::string(kNames[rng.Uniform(16)]) + " " +
                         kNames[rng.Uniform(16)];
      std::string brand = "Brand#" + std::to_string(rng.UniformRange(1, 5)) +
                          std::to_string(rng.UniformRange(1, 5));
      std::string type = std::string(kTypes1[rng.Uniform(6)]) + " " +
                         kTypes2[rng.Uniform(5)] + " " +
                         kTypes3[rng.Uniform(5)];
      std::string container = std::string(kContainers1[rng.Uniform(5)]) +
                              " " + kContainers2[rng.Uniform(8)];
      rows.push_back({i, name, brand, type, rng.UniformRange(1, 50),
                      container,
                      900.0 + static_cast<double>(i % 1000)});
    }
    PDT_RETURN_NOT_OK(tables.part->Load(rows));
  }
  {
    std::vector<Tuple> rows;
    int64_t n = SupplierCount(gen.scale_factor);
    for (int64_t i = 1; i <= n; ++i) {
      rows.push_back({i, "Supplier#" + std::to_string(i),
                      rng.UniformRange(0, 24),
                      static_cast<double>(rng.UniformRange(-999, 9999))});
    }
    PDT_RETURN_NOT_OK(tables.supplier->Load(rows));
  }
  {
    std::vector<Tuple> rows;
    for (int64_t i = 0; i < 25; ++i) {
      rows.push_back({i, std::string(kNations[i]), i % 5});
    }
    PDT_RETURN_NOT_OK(tables.nation->Load(rows));
  }
  return tables;
}

}  // namespace tpch
}  // namespace pdtstore
