#include "engine/reference.h"

#include <algorithm>
#include <map>

#include "data/types.h"

namespace skyrise::engine {

namespace {
int32_t DateNum(int y, int m, int d) { return data::DaysSinceEpoch(y, m, d); }
}  // namespace

Q6Reference ReferenceQ6(const data::Chunk& lineitem) {
  const auto& shipdate = lineitem.column("l_shipdate").ints();
  const auto& discount = lineitem.column("l_discount").doubles();
  const auto& quantity = lineitem.column("l_quantity").doubles();
  const auto& price = lineitem.column("l_extendedprice").doubles();
  const int32_t lo = DateNum(1994, 1, 1);
  const int32_t hi = DateNum(1995, 1, 1);
  Q6Reference out;
  for (size_t i = 0; i < shipdate.size(); ++i) {
    if (shipdate[i] >= lo && shipdate[i] < hi && discount[i] >= 0.05 &&
        discount[i] <= 0.07 && quantity[i] < 24) {
      out.revenue += price[i] * discount[i];
    }
  }
  return out;
}

std::vector<Q1Group> ReferenceQ1(const data::Chunk& lineitem) {
  const auto& shipdate = lineitem.column("l_shipdate").ints();
  const auto& returnflag = lineitem.column("l_returnflag").strings();
  const auto& linestatus = lineitem.column("l_linestatus").strings();
  const auto& quantity = lineitem.column("l_quantity").doubles();
  const auto& price = lineitem.column("l_extendedprice").doubles();
  const auto& discount = lineitem.column("l_discount").doubles();
  const auto& tax = lineitem.column("l_tax").doubles();
  const int32_t cutoff = DateNum(1998, 9, 2);
  std::map<std::pair<std::string, std::string>, Q1Group> groups;
  double sum_disc = 0;
  (void)sum_disc;
  std::map<std::pair<std::string, std::string>, double> discs;
  for (size_t i = 0; i < shipdate.size(); ++i) {
    if (shipdate[i] > cutoff) continue;
    const std::pair<std::string, std::string> key(returnflag[i],
                                                  linestatus[i]);
    Q1Group& g = groups[key];
    g.returnflag = returnflag[i];
    g.linestatus = linestatus[i];
    g.sum_qty += quantity[i];
    g.sum_base_price += price[i];
    const double disc_price = price[i] * (1 - discount[i]);
    g.sum_disc_price += disc_price;
    g.sum_charge += disc_price * (1 + tax[i]);
    discs[key] += discount[i];
    g.count_order += 1;
  }
  std::vector<Q1Group> out;
  for (auto& [key, g] : groups) {
    g.avg_qty = g.sum_qty / static_cast<double>(g.count_order);
    g.avg_price = g.sum_base_price / static_cast<double>(g.count_order);
    g.avg_disc = discs[key] / static_cast<double>(g.count_order);
    out.push_back(g);
  }
  return out;  // std::map iterates sorted by (returnflag, linestatus).
}

std::vector<Q12Group> ReferenceQ12(const data::Chunk& lineitem,
                                   const data::Chunk& orders) {
  std::map<int64_t, std::string> priority_of;
  const auto& orderkey = orders.column("o_orderkey").ints();
  const auto& priority = orders.column("o_orderpriority").strings();
  for (size_t i = 0; i < orderkey.size(); ++i) {
    priority_of[orderkey[i]] = priority[i];
  }
  const auto& l_orderkey = lineitem.column("l_orderkey").ints();
  const auto& shipmode = lineitem.column("l_shipmode").strings();
  const auto& shipdate = lineitem.column("l_shipdate").ints();
  const auto& commitdate = lineitem.column("l_commitdate").ints();
  const auto& receiptdate = lineitem.column("l_receiptdate").ints();
  const int32_t lo = DateNum(1994, 1, 1);
  const int32_t hi = DateNum(1995, 1, 1);
  std::map<std::string, Q12Group> groups;
  for (size_t i = 0; i < l_orderkey.size(); ++i) {
    if (shipmode[i] != "MAIL" && shipmode[i] != "SHIP") continue;
    if (!(commitdate[i] < receiptdate[i])) continue;
    if (!(shipdate[i] < commitdate[i])) continue;
    if (receiptdate[i] < lo || receiptdate[i] >= hi) continue;
    auto it = priority_of.find(l_orderkey[i]);
    if (it == priority_of.end()) continue;
    Q12Group& g = groups[std::string(shipmode[i])];
    g.shipmode = shipmode[i];
    if (it->second == "1-URGENT" || it->second == "2-HIGH") {
      g.high_line_count += 1;
    } else {
      g.low_line_count += 1;
    }
  }
  std::vector<Q12Group> out;
  for (auto& [key, g] : groups) out.push_back(g);
  return out;
}

std::vector<BbQ3Row> ReferenceBbQ3(const data::Chunk& clickstreams,
                                   const data::Chunk& item,
                                   const QuerySuiteOptions& options) {
  std::map<int64_t, int64_t> category_of;
  {
    const auto& sk = item.column("i_item_sk").ints();
    const auto& category = item.column("i_category_id").ints();
    for (size_t i = 0; i < sk.size(); ++i) category_of[sk[i]] = category[i];
  }
  const auto& date = clickstreams.column("wcs_click_date").ints();
  const auto& user = clickstreams.column("wcs_user_sk").ints();
  const auto& item_sk = clickstreams.column("wcs_item_sk").ints();
  const auto& sale = clickstreams.column("wcs_sales_sk").ints();

  struct Click {
    int64_t date, item, sale;
    size_t row;
  };
  std::map<int64_t, std::vector<Click>> by_user;
  for (size_t i = 0; i < date.size(); ++i) {
    by_user[user[i]].push_back(Click{date[i], item_sk[i], sale[i], i});
  }
  std::map<int64_t, int64_t> views;
  for (auto& [u, clicks] : by_user) {
    std::stable_sort(clicks.begin(), clicks.end(),
                     [](const Click& a, const Click& b) {
                       if (a.date != b.date) return a.date < b.date;
                       return a.row < b.row;
                     });
    for (size_t i = 0; i < clicks.size(); ++i) {
      const Click& purchase = clicks[i];
      if (purchase.sale <= 0) continue;
      auto cat = category_of.find(purchase.item);
      if (cat == category_of.end() || cat->second != options.bb_target_category) {
        continue;
      }
      for (const Click& view : clicks) {
        if (view.sale != 0) continue;
        auto vcat = category_of.find(view.item);
        if (vcat == category_of.end() ||
            vcat->second != options.bb_target_category) {
          continue;
        }
        const int64_t gap = purchase.date - view.date;
        if (gap < 1 || gap > options.bb_window_days) continue;
        views[view.item] += 1;
      }
    }
  }
  std::vector<BbQ3Row> out;
  for (const auto& [sk, count] : views) out.push_back(BbQ3Row{sk, count});
  std::sort(out.begin(), out.end(), [](const BbQ3Row& a, const BbQ3Row& b) {
    if (a.views != b.views) return a.views > b.views;
    return a.item_sk < b.item_sk;
  });
  if (static_cast<int>(out.size()) > options.bb_top_k) {
    out.resize(static_cast<size_t>(options.bb_top_k));
  }
  return out;
}

}  // namespace skyrise::engine
