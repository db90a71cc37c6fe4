#include "workload/postmark.hpp"

#include <cassert>
#include <string>
#include <vector>

namespace mif::workload {

namespace {
struct LiveFile {
  std::string path;
  InodeNo ino{};
  u64 size{0};
};

// "s<d>", the name of subdirectory d.  Appended in place: GCC 12 reads
// `"s" + std::to_string(d)` as a memcpy that may overlap (-Wrestrict).
std::string subdir(u32 d) {
  std::string name = "s";
  name += std::to_string(d);
  return name;
}
}  // namespace

PostmarkResult run_postmark(core::ParallelFileSystem& fs,
                            const PostmarkConfig& cfg) {
  PostmarkResult res;
  Rng rng(cfg.seed);
  auto client = fs.connect(ClientId{1});

  const double meta0 = fs.mds().fs().elapsed_ms();
  const double data0 = fs.data_elapsed_ms();

  for (u32 d = 0; d < cfg.subdirectories; ++d) {
    auto r = fs.rpc().mkdir(subdir(d));
    assert(r);
    (void)r;
  }

  std::vector<LiveFile> files;
  files.reserve(cfg.base_files + cfg.transactions / 2);
  u64 serial = 0;

  auto make_file = [&]() {
    const u32 d = static_cast<u32>(rng.uniform(0, cfg.subdirectories - 1));
    LiveFile f;
    f.path = subdir(d);
    f.path += "/p";
    f.path += std::to_string(serial++);
    auto fh = client.create(f.path);
    assert(fh);
    f.ino = fh->ino;
    f.size = rng.uniform(cfg.min_file_bytes, cfg.max_file_bytes);
    const Status w = client.write(*fh, 0, 0, f.size);
    assert(w.ok());
    (void)w;
    const Status c = client.close(*fh);
    assert(c.ok());
    (void)c;
    files.push_back(std::move(f));
    ++res.created;
  };

  auto delete_file = [&]() {
    if (files.empty()) return;
    const std::size_t i = rng.uniform(0, files.size() - 1);
    const Status s = fs.rpc().unlink(files[i].path);
    assert(s.ok());
    (void)s;
    fs.delete_file(files[i].ino);
    files[i] = std::move(files.back());
    files.pop_back();
    ++res.deleted;
  };

  // Initial pool.
  for (u32 i = 0; i < cfg.base_files; ++i) make_file();

  // Transactions.
  for (u32 t = 0; t < cfg.transactions; ++t) {
    if (rng.chance(0.5)) {
      make_file();
    } else {
      delete_file();
    }
    if (files.empty()) continue;
    const std::size_t i = rng.uniform(0, files.size() - 1);
    LiveFile& f = files[i];
    auto fh = client.open(f.path);
    if (!fh) continue;
    if (rng.chance(0.5)) {
      const Status s = client.read(*fh, 0, std::max<u64>(f.size, 1));
      assert(s.ok());
      (void)s;
      ++res.read;
    } else {
      const u64 grow = rng.uniform(cfg.min_file_bytes, cfg.max_file_bytes);
      const Status s = client.write(*fh, 0, f.size, grow);
      assert(s.ok());
      (void)s;
      f.size += grow;
      const Status c = client.close(*fh);
      assert(c.ok());
      (void)c;
      ++res.appended;
    }
  }

  fs.drain_data();
  fs.finish_mds();
  res.metadata_ms = fs.mds().fs().elapsed_ms() - meta0;
  res.data_ms = fs.data_elapsed_ms() - data0;
  res.elapsed_ms = res.metadata_ms + res.data_ms;
  res.transactions_per_sec =
      static_cast<double>(cfg.transactions) / (res.elapsed_ms * 1e-3);
  return res;
}

}  // namespace mif::workload
