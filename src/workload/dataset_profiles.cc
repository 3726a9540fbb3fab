#include "src/workload/dataset_profiles.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/hash.h"

namespace s3fifo {
namespace {

ZipfWorkloadConfig Base(uint64_t objects, uint64_t requests, double alpha) {
  ZipfWorkloadConfig c;
  c.num_objects = objects;
  c.num_requests = requests;
  c.alpha = alpha;
  return c;
}

std::vector<DatasetProfile> BuildProfiles() {
  std::vector<DatasetProfile> p;

  // Tuning note: each profile's knobs are fit against the Table 1 one-hit-
  // wonder triple (full trace / 10% / 1% sub-sequences). Levers: alpha and
  // the request:object ratio set how hot the Zipf core is (low ratio + low
  // alpha -> reuse at long range only: low full-trace OHW, high short-window
  // OHW); new_object_fraction injects genuine one-hit wonders (raises OHW
  // equally at all window lengths); scans add one-hit bursts; loops add
  // short-range reuse.

  // MSR (block, 2007): scans + moderate core (0.56 / 0.74 / 0.86).
  {
    DatasetProfile d{"msr", "block", Base(60000, 400000, 0.85), 6};
    d.base.scan_fraction = 0.0008;
    d.base.scan_length = 300;
    d.base.loop_fraction = 0.0004;
    d.base.loop_length = 300;
    d.base.loop_repeats = 3;
    d.base.write_fraction = 0.3;
    p.push_back(d);
  }
  // FIU (block, 2008-11): reuse only at long range (0.28 / 0.91 / 0.91).
  {
    DatasetProfile d{"fiu", "block", Base(120000, 420000, 0.7), 5};
    d.base.write_fraction = 0.5;
    p.push_back(d);
  }
  // CloudPhysics (block, 2015): (0.40 / 0.71 / 0.80).
  {
    DatasetProfile d{"cloudphysics", "block", Base(30000, 350000, 1.0), 8};
    d.base.scan_fraction = 0.0001;
    d.base.scan_length = 200;
    d.base.write_fraction = 0.25;
    d.base.burst_fraction = 0.1;
    p.push_back(d);
  }
  // CDN 1 (object, 2018): hot core + long tail of new objects
  // (0.42 / 0.58 / 0.70).
  {
    DatasetProfile d{"cdn1", "object", Base(15000, 450000, 1.35), 8};
    d.base.new_object_fraction = 0.006;
    d.base.size_sigma = 1.2;
    d.base.size_mean_bytes = 64 << 10;
    d.base.burst_fraction = 0.22;
    p.push_back(d);
  }
  // Tencent Photo (object, 2018): (0.55 / 0.66 / 0.74).
  {
    DatasetProfile d{"tencent_photo", "object", Base(12000, 250000, 1.25), 4};
    d.base.new_object_fraction = 0.035;
    d.base.size_sigma = 0.8;
    d.base.size_mean_bytes = 24 << 10;
    d.base.burst_fraction = 0.18;
    p.push_back(d);
  }
  // WikiMedia CDN (object, 2019): (0.46 / 0.60 / 0.80).
  {
    DatasetProfile d{"wiki", "object", Base(10000, 300000, 1.3), 4};
    d.base.new_object_fraction = 0.008;
    d.base.size_sigma = 1.4;
    d.base.size_mean_bytes = 48 << 10;
    d.base.burst_fraction = 0.2;
    p.push_back(d);
  }
  // Systor (block, 2017): low full-trace OHW, long-range reuse
  // (0.37 / 0.80 / 0.94).
  {
    DatasetProfile d{"systor", "block", Base(110000, 650000, 0.7), 5};
    d.base.scan_fraction = 0.0003;
    d.base.scan_length = 300;
    d.base.write_fraction = 0.45;
    d.base.burst_fraction = 0.1;
    p.push_back(d);
  }
  // Tencent CBS (block, 2020): (0.25 / 0.73 / 0.77).
  {
    DatasetProfile d{"tencent_cbs", "block", Base(50000, 260000, 0.8), 8};
    d.base.burst_fraction = 0.12;
    d.base.write_fraction = 0.35;
    p.push_back(d);
  }
  // Alibaba (block, 2020): (0.36 / 0.68 / 0.81).
  {
    DatasetProfile d{"alibaba", "block", Base(70000, 420000, 0.85), 8};
    d.base.scan_fraction = 0.0002;
    d.base.scan_length = 300;
    d.base.write_fraction = 0.3;
    d.base.burst_fraction = 0.2;
    p.push_back(d);
  }
  // Twitter (KV, 2020): extremely hot core (0.19 / 0.32 / 0.42).
  {
    DatasetProfile d{"twitter", "kv", Base(8000, 420000, 1.1), 8};
    d.base.new_object_fraction = 0.004;
    d.base.write_fraction = 0.1;
    d.base.delete_fraction = 0.01;
    d.base.size_mean_bytes = 330;
    d.base.size_sigma = 0.7;
    d.base.size_min_bytes = 16;
    d.base.burst_fraction = 0.5;
    d.base.burst_gap_max = 48;
    p.push_back(d);
  }
  // Social Network 1 (KV, 2020): hotter still (0.17 / 0.28 / 0.37).
  {
    DatasetProfile d{"socialnet", "kv", Base(8000, 480000, 1.15), 8};
    d.base.new_object_fraction = 0.004;
    d.base.write_fraction = 0.12;
    d.base.delete_fraction = 0.015;
    d.base.size_mean_bytes = 250;
    d.base.size_sigma = 0.6;
    d.base.size_min_bytes = 16;
    d.base.burst_fraction = 0.55;
    d.base.burst_gap_max = 48;
    p.push_back(d);
  }
  // CDN 2 (object, 2021): (0.49 / 0.58 / 0.64).
  {
    DatasetProfile d{"cdn2", "object", Base(12000, 350000, 1.35), 8};
    d.base.new_object_fraction = 0.008;
    d.base.size_sigma = 1.1;
    d.base.size_mean_bytes = 96 << 10;
    d.base.burst_fraction = 0.25;
    p.push_back(d);
  }
  // Meta KV (2022): flat curve — genuine one-hit wonders plus a hot core
  // (0.51 / 0.53 / 0.61).
  {
    DatasetProfile d{"meta_kv", "kv", Base(6000, 250000, 1.4), 4};
    d.base.new_object_fraction = 0.018;
    d.base.write_fraction = 0.2;
    d.base.delete_fraction = 0.02;
    d.base.size_mean_bytes = 4096;
    d.base.size_sigma = 0.9;
    d.base.burst_fraction = 0.35;
    p.push_back(d);
  }
  // Meta CDN (2023): very high one-hit-wonder (0.61 / 0.76 / 0.81).
  {
    DatasetProfile d{"meta_cdn", "object", Base(14000, 200000, 1.1), 3};
    d.base.new_object_fraction = 0.055;
    d.base.size_sigma = 1.3;
    d.base.size_mean_bytes = 512 << 10;
    d.base.burst_fraction = 0.08;
    p.push_back(d);
  }
  return p;
}

}  // namespace

const std::vector<DatasetProfile>& AllDatasetProfiles() {
  static const std::vector<DatasetProfile>* profiles =
      new std::vector<DatasetProfile>(BuildProfiles());
  return *profiles;
}

const DatasetProfile& DatasetByName(const std::string& name) {
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    if (d.name == name) {
      return d;
    }
  }
  throw std::out_of_range("unknown dataset profile: " + name);
}

Trace GenerateDatasetTrace(const DatasetProfile& profile, uint32_t trace_index, double scale) {
  ZipfWorkloadConfig c = profile.base;
  scale = std::max(scale, 0.01);
  c.num_objects = std::max<uint64_t>(static_cast<uint64_t>(c.num_objects * scale), 1000);
  c.num_requests = std::max<uint64_t>(static_cast<uint64_t>(c.num_requests * scale), 5000);
  c.seed = Mix64((static_cast<uint64_t>(trace_index) << 32) ^ HashId(profile.name.size()) ^
                 profile.base.seed);
  // Mild per-tenant jitter: +-10% skew, +-25% footprint.
  const double jitter_a = 0.9 + 0.2 * ((c.seed >> 7) % 1000) / 1000.0;
  const double jitter_m = 0.75 + 0.5 * ((c.seed >> 17) % 1000) / 1000.0;
  c.alpha *= jitter_a;
  c.num_objects = std::max<uint64_t>(static_cast<uint64_t>(c.num_objects * jitter_m), 1000);
  Trace t = GenerateZipfTrace(c);
  t.set_name(profile.name + "/" + std::to_string(trace_index));
  return t;
}

}  // namespace s3fifo
