"""Quickstart: train Conformer on the synthetic ETTh1 dataset and forecast.

Run:  python examples/quickstart.py

Walks the full public API end to end: load a dataset, build windows,
train with the paper's protocol (Adam + early stopping + the Eq. 18
double-headed loss), evaluate on the held-out test split, and print a
sample forecast against the ground truth.
"""

import numpy as np

from repro import Conformer, ConformerConfig, load_dataset, seed_everything
from repro.data import DataLoader, WindowedDataset
from repro.tensor import Tensor, no_grad
from repro.training import Trainer, metrics

INPUT_LEN, LABEL_LEN, PRED_LEN = 32, 16, 12


def make_loader(dataset, part, shuffle):
    values, stamps = dataset.split(part)
    windows = WindowedDataset(
        values, dataset.marks(stamps), INPUT_LEN, PRED_LEN, label_len=LABEL_LEN, stride=8
    )
    return DataLoader(windows, batch_size=16, shuffle=shuffle, rng=np.random.default_rng(0))


def main():
    seed_everything(0)

    print("1. Loading the synthetic ETTh1 dataset (7 variables, hourly) ...")
    dataset = load_dataset("etth1", n_points=1600)
    print(f"   {dataset.summary()}")

    print("2. Building Conformer (sliding-window attention + SIRN + flow) ...")
    config = ConformerConfig(
        enc_in=dataset.n_dims,
        dec_in=dataset.n_dims,
        c_out=dataset.n_dims,
        input_len=INPUT_LEN,
        label_len=LABEL_LEN,
        pred_len=PRED_LEN,
        d_model=16,
        n_heads=2,
        moving_avg=13,
        window=2,          # paper default
        lambda_weight=0.8,  # paper default
        n_flows=2,          # paper default
    )
    model = Conformer(config)
    print(f"   {model.num_parameters():,} parameters")

    print("3. Training with Adam + early stopping ...")
    trainer = Trainer(model, learning_rate=1e-3, max_epochs=5, patience=3, verbose=True)
    trainer.fit(make_loader(dataset, "train", True), make_loader(dataset, "val", False))

    print("4. Evaluating on the test split ...")
    test_loader = make_loader(dataset, "test", False)
    scores = trainer.evaluate(test_loader)
    print(f"   test MSE={scores['mse']:.4f}  MAE={scores['mae']:.4f}")

    print("5. One forecast vs ground truth (target variable, first window):")
    x_enc, x_mark, x_dec, y_mark, y = next(iter(test_loader))
    forecast = model.predict(x_enc, x_mark, x_dec, y_mark)
    target_idx = dataset.target_index
    for step in range(0, PRED_LEN, 3):
        print(f"   t+{step + 1:>2}:  forecast={forecast[0, step, target_idx]:+.3f}  truth={y[0, step, target_idx]:+.3f}")


if __name__ == "__main__":
    main()
