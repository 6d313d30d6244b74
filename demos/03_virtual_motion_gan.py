"""Train the adversarial generator on synthetic muscle/motion pairs.

Generates the seeded desk-scale dataset, preprocesses it through the
generation chain, trains the generator on the training-trial cohort, and
reports how well held-out virtual motion windows track the real ones.
The bundle is written under the temporary dataset root and removed with
it. Takes about 20 seconds.
"""
import os
import tempfile

import numpy as np

from vimu.data import Dataset, SynthConfig, make_split, synth_generate, synthetic_profile
from vimu.gan import GanTrainConfig, generate_virtual, normalize_generator_inputs
from vimu.pipeline import extract_windows, train_generator_bundle
from vimu.sigproc import PreprocSpec

with tempfile.TemporaryDirectory() as root:
    synth_generate(SynthConfig(seed=0), root)
    dataset = Dataset(root)
    profile = synthetic_profile(dataset.manifest)
    plan = make_split(dataset.manifest, "exp2", profile)
    table = extract_windows(dataset, profile, PreprocSpec(window_ms=200.0, step_ms=100.0, decimation=4))
    print(f"{len(table)} windows of {table.semg_gan.shape[1]} frames")

    train_mask = np.isin(table.trials, plan.gan_train_trials)
    held_mask = np.isin(table.trials, plan.clf_test_trials)
    cfg = GanTrainConfig(epochs=200, batch_size=16, max_pairs=384,
                         generator_maps=(8, 4, 1), seed=0)
    print(f"training {cfg.epochs} epochs on {min(cfg.max_pairs, int(train_mask.sum()))} pairs ...")
    # Fits the cohort's normalization stats, trains, and bundles the generator with them.
    bundle, _, history = train_generator_bundle(table.semg_gan[train_mask], table.imu[train_mask], cfg,
                                                os.path.join(root, "gan"))
    print(f"final D(real) {history['d_real'][-1]:.2f}, D(fake) {history['d_fake'][-1]:.2f}, "
          f"adversarial value {history['value'][-1]:.3f}")

    held_norm = normalize_generator_inputs(bundle, table.semg_gan[held_mask]).astype(np.float32)
    virtual = generate_virtual(bundle, held_norm)
    real = table.imu[held_mask]
    corrs = [float(np.corrcoef(virtual[:, :, c].ravel(), real[:, :, c].ravel())[0, 1])
             for c in range(real.shape[2])]
    print("held-out correlation per motion channel:",
          ", ".join(f"{c:.3f}" for c in corrs), f"(mean {np.mean(corrs):.3f})")
