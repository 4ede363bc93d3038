// Deployment & serving pipeline, end to end and in-process: train a tiny
// fake-quantized model, convert it, write the flash image a provisioning
// system would ship, load it back the way `mixq serve` does, and serve a
// few newline-delimited JSON requests through the micro-batching daemon --
// asserting the served logits are bit-identical to the reference executor.
//
// The same flow from a shell:
//   mixq quantize --out model.img --epochs 2
//   mixq run model.img --input synthetic:4 --ndjson --emit-requests req.ndjson
//   mixq serve model.img < req.ndjson
#include <cstdio>
#include <sstream>

#include "data/synthetic.hpp"
#include "eval/trainer.hpp"
#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/flash_image.hpp"
#include "serve/server.hpp"

int main() {
  using namespace mixq;

  // 1. Train + convert a small W4A4 PC+ICN model (the quickstart flow).
  data::SyntheticSpec dspec;
  dspec.hw = 8;
  dspec.num_classes = 4;
  dspec.train_size = 128;
  dspec.test_size = 64;
  auto [train, test] = data::make_synthetic(dspec);
  Rng rng(3);
  models::SmallCnnConfig mcfg;
  mcfg.input_hw = 8;
  mcfg.base_channels = 8;
  mcfg.num_blocks = 2;
  mcfg.num_classes = 4;
  mcfg.qw = core::BitWidth::kQ4;
  mcfg.qa = core::BitWidth::kQ4;
  mcfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(mcfg, &rng);
  eval::TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.lr = 3e-3f;
  eval::train_qat(model, train, test, tcfg);
  const runtime::QuantizedNet qnet = runtime::convert_qat_model(
      model, Shape(1, 8, 8, 3), {core::Scheme::kPCICN});

  // 2. Flash-image round trip: what `mixq quantize` writes, `mixq serve`
  // reads (with the loader's geometry/resource validation in between).
  const auto blob = runtime::save_flash_image(qnet);
  const runtime::QuantizedNet loaded = runtime::load_flash_image(blob);
  std::printf("flash image: %zu bytes, %zu layers, RO %lld B, RW peak %lld B\n",
              blob.size(), loaded.layers.size(),
              (long long)loaded.ro_bytes(), (long long)loaded.rw_peak_bytes());

  // 3. Build the request stream a client would send: 4 samples from the
  // test set, one ndjson request line each.
  const std::int64_t numel = loaded.layers.front().in_shape.numel();
  std::string requests;
  for (int i = 0; i < 4; ++i) {
    requests += serve::format_request_line(
        i, test.images.data() + i * numel, numel);
    requests += "\n";
  }

  // 4. Serve them through the micro-batching daemon (stdio transport; the
  // same dispatcher backs --socket and --tcp). 2 worker lanes; each batch
  // takes up to 4 of the requests already queued, never waiting for more.
  serve::ServeConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  std::istringstream in(requests);
  std::ostringstream out;
  serve::StreamServer server(loaded, cfg);
  const serve::ServeStats stats = server.serve(in, out);
  std::printf("served %lld requests in %lld micro-batch(es):\n%s",
              (long long)stats.responses, (long long)stats.batches,
              out.str().c_str());

  // 5. The contract that makes the daemon trustworthy: served responses
  // are byte-identical to the reference kernels' integer-only run.
  const runtime::Executor exec(loaded);
  std::istringstream served(out.str());
  std::string line;
  for (int i = 0; i < 4; ++i) {
    FloatTensor img(loaded.layers.front().in_shape);
    for (std::int64_t k = 0; k < numel; ++k) {
      img[k] = test.images[i * numel + k];
    }
    const runtime::QInferenceResult direct = exec.run(img);
    std::getline(served, line);
    if (line != serve::format_result_line(i, direct)) {
      std::printf("MISMATCH on request %d\n", i);
      return 1;
    }
  }
  std::printf("served responses bit-identical to the reference executor: "
              "OK\n");
  return 0;
}
