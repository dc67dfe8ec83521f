#include "bpf/vm.h"

#include "util/check.h"

namespace hermes::bpf {

std::optional<VerifiedImage::MapShape> VerifiedImage::shape_of(const Map* m) {
  if (m == nullptr) return std::nullopt;
  return MapShape{m->type(), m->max_entries(), m->value_size()};
}

std::unique_ptr<LoadedProgram> Vm::load(Program prog, std::vector<Map*> maps,
                                        std::string* error) const {
  VerifyResult vr = verify(prog, maps);
  if (!vr) {
    if (error != nullptr) *error = vr.error;
    return nullptr;
  }
  auto image = std::make_shared<VerifiedImage>();
  image->plan_ = compile_plan(prog, maps, vr.analysis);
  image->prog_ = std::move(prog);
  image->analysis_ = std::move(vr.analysis);
  for (const Map* m : maps) {
    image->shapes_.push_back(VerifiedImage::shape_of(m));
  }
  return bind(std::move(image), std::move(maps));
}

std::unique_ptr<LoadedProgram> Vm::bind(
    std::shared_ptr<const VerifiedImage> image,
    std::vector<Map*> maps) const {
  HERMES_CHECK(image != nullptr);
  HERMES_CHECK_MSG(maps.size() == image->shapes_.size(),
                   "bpf bind: map count differs from the verified image");
  for (size_t slot = 0; slot < maps.size(); ++slot) {
    HERMES_CHECK_MSG(VerifiedImage::shape_of(maps[slot]) ==
                         image->shapes_[slot],
                     "bpf bind: map shape differs from the verified image");
  }
  auto lp = std::unique_ptr<LoadedProgram>(new LoadedProgram);
  lp->plan_ = image->plan_.bind(maps);
  lp->image_ = std::move(image);
  lp->maps_ = std::move(maps);
  return lp;
}

Vm::RunResult Vm::run(const LoadedProgram& lp, ReuseportCtx& ctx) const {
  return lp.plan_.execute(ctx);
}

}  // namespace hermes::bpf
