//! Figure 1 (motivation): per-epoch training time for the vanilla-lustre,
//! vanilla-local and vanilla-caching setups × {LeNet, AlexNet, ResNet-50}
//! on the 100 GiB ImageNet-1k dataset, 3 epochs, mean ± std over trials.

use dlpipe::config::Setup;
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;

fn main() {
    let env = dlpipe::config::EnvConfig::default();
    let geom = DatasetGeom::imagenet_100g();
    let n = monarch_bench::trials();
    let mut rows = Vec::new();
    for model in ModelProfile::paper_models() {
        for setup in [
            Setup::VanillaLustre,
            Setup::VanillaLocal,
            Setup::VanillaCaching,
        ] {
            rows.push(monarch_bench::run_trials(
                &setup,
                &geom,
                &model,
                &env,
                n,
                monarch_bench::EPOCHS,
            ));
        }
    }
    monarch_bench::print_epoch_table(
        "Fig. 1 — motivation: vanilla setups, 100 GiB ImageNet-1k, 3 epochs",
        &rows,
    );
    println!("\npaper anchors (totals): lenet 1205/650/917  alexnet 1193/976/1058  (lustre/local/caching)");
    monarch_bench::save_json("fig1", &rows);
}
