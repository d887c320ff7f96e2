import hashlib
import warnings
from xml.dom import minidom
from xml.sax.saxutils import escape

import pytest

from ceralab.errors import ConfigError, DomainError
from ceralab.plotting import AxesSpec, Series, emit_plot


def test_single_point_is_valid_svg_with_marker(tmp_path):
    path = tmp_path / "one.svg"
    emit_plot([Series(label="pt", xs=[2.0], ys=[5.0])], AxesSpec(title="t"), path)
    text = path.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 1
    assert "<polyline" not in text  # one point: marker only


def test_identical_input_identical_bytes(tmp_path):
    series = [Series(label="a", xs=[1, 2, 4, 8], ys=[3.0, 2.5, 2.1, 2.05]),
              Series(label="b", xs=[1, 2, 4, 8], ys=[3.0, 2.0, 1.2, 0.7],
                     y_lo=[2.9, 1.9, 1.1, 0.6], y_hi=[3.1, 2.1, 1.3, 0.8])]
    axes = AxesSpec(title="metric", xlabel="rank", ylabel="mse", xscale="log")
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(series, axes, p1)
    emit_plot(series, axes, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_log_scale_zero_clamped_with_warning(tmp_path):
    path = tmp_path / "log.svg"
    with pytest.warns(UserWarning, match="clamped"):
        emit_plot([Series(label="s", xs=[1, 2, 3], ys=[1.0, 0.0, 4.0])],
                  AxesSpec(yscale="log"), path)
    assert path.exists() and b"<svg" in path.read_bytes()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(DomainError):
        emit_plot([], AxesSpec(), tmp_path / "no.svg")
    with pytest.raises(DomainError):
        emit_plot([Series(label="e", xs=[], ys=[])], AxesSpec(), tmp_path / "no.svg")


def test_mismatched_lengths_rejected(tmp_path):
    with pytest.raises(DomainError):
        emit_plot([Series(label="bad", xs=[1, 2], ys=[1.0])],
                  AxesSpec(), tmp_path / "no.svg")


def test_specs_that_would_render_wrong_are_config_errors():
    # an unknown scale used to be drawn as linear
    for scale in ("logarithmic", "Log", ""):
        with pytest.raises(ConfigError, match="xscale"):
            AxesSpec(xscale=scale)
        with pytest.raises(ConfigError, match="yscale"):
            AxesSpec(yscale=scale)
    # a size that cannot hold the margins used to write width="-5"
    for size in ({"width": -5}, {"width": 80}, {"height": 0}, {"height": 80}):
        with pytest.raises(ConfigError, match="margins"):
            AxesSpec(**size)
    AxesSpec(width=81, height=81)
    # an error band needs one value per point
    with pytest.raises(ConfigError, match="y_lo has 1 values for 3 points"):
        Series(label="s", xs=[1, 2, 3], ys=[1, 2, 3], y_lo=[0.5])
    with pytest.raises(ConfigError, match="y_hi has 4 values for 3 points"):
        Series(label="s", xs=[1, 2, 3], ys=[1, 2, 3], y_hi=[1, 2, 3, 4])
    Series(label="s", xs=[1, 2, 3], ys=[1, 2, 3], y_lo=[0, 1, 2], y_hi=[2, 3, 4])
    # one bound alone drew no band yet still widened the y-axis
    for bound in ("y_lo", "y_hi"):
        with pytest.raises(ConfigError, match="both y_lo and y_hi, or neither"):
            Series(label="s", xs=[1, 2, 3], ys=[1, 2, 3], **{bound: [-10, 1, 2]})


def test_labels_and_legend_present(tmp_path):
    path = tmp_path / "lab.svg"
    emit_plot([Series(label="alpha", xs=[0, 1], ys=[1, 2])],
              AxesSpec(title="Title", xlabel="X", ylabel="Y"), path)
    text = path.read_text()
    for token in ("Title", "X", "Y", "alpha"):
        assert token in text


def test_markup_characters_in_text_are_escaped(tmp_path):
    path = tmp_path / "esc.svg"
    emit_plot([Series(label="lora & cera <r=4>", xs=[1, 2], ys=[1, 2])],
              AxesSpec(title="MSE < floor", xlabel="a & b", ylabel="x > 0"), path)
    texts = [t.firstChild.data for t in
             minidom.parse(str(path)).getElementsByTagName("text")]
    raw = path.read_text()
    for want in ("lora & cera <r=4>", "MSE < floor", "a & b", "x > 0"):
        assert want in texts
        assert f">{escape(want)}</text>" in raw  # the standard escape's bytes


# a fixed corpus: the inputs above plus log axes, error bands, int and
# float xs, negative values, a flat line, a palette wrap and one-point
# cases, each as (series, axes)
PIN_CORPUS = [
    ([Series(label="pt", xs=[2.0], ys=[5.0])], AxesSpec(title="t")),
    ([Series(label="a", xs=[1, 2, 4, 8], ys=[3.0, 2.5, 2.1, 2.05]),
      Series(label="b", xs=[1, 2, 4, 8], ys=[3.0, 2.0, 1.2, 0.7],
             y_lo=[2.9, 1.9, 1.1, 0.6], y_hi=[3.1, 2.1, 1.3, 0.8])],
     AxesSpec(title="metric", xlabel="rank", ylabel="mse", xscale="log")),
    ([Series(label="s", xs=[1, 2, 3], ys=[1.0, 0.0, 4.0])], AxesSpec(yscale="log")),
    ([Series(label="alpha", xs=[0, 1], ys=[1, 2])],
     AxesSpec(title="Title", xlabel="X", ylabel="Y")),
    ([Series(label="lora & cera <r=4>", xs=[1, 2], ys=[1, 2])],
     AxesSpec(title="MSE < floor", xlabel="a & b", ylabel="x > 0")),
    ([Series(label="ll", xs=[4, 16, 64, 512], ys=[0.03, 0.004, 2e-4, 1.5e-5],
             y_lo=[0.02, 0.0, 1e-4, 1e-5], y_hi=[0.05, 0.006, 3e-4, 2e-5])],
     AxesSpec(xscale="log", yscale="log", width=500, height=300)),
    ([Series(label="one", xs=[8], ys=[0.25])], AxesSpec(xscale="log", yscale="log")),
    ([Series(label="neg", xs=[-2.5, -0.125, 0.75, 3.0], ys=[-40.0, 12.5, -0.001, 7.0],
             y_lo=[-41.0, 11.0, -0.5, 6.0], y_hi=[-39.0, 14.0, 0.5, 8.0])],
     AxesSpec(ylabel="delta")),
    ([Series(label="flat", xs=[1, 2, 3], ys=[0.5, 0.5, 0.5]),
      Series(label="zero", xs=[1, 2, 3], ys=[0.0, 0.0, 0.0])], AxesSpec()),
    ([Series(label=f"s{i}", xs=[1, 2, 3], ys=[i, i + 0.5, i * 1.5]) for i in range(8)],
     AxesSpec(title="wrap", xscale="log")),
    ([Series(label="tiny", xs=[1e-6, 2e-6, 5e-6], ys=[3e-6, 1e-6, 2e-6]),
      Series(label="big", xs=[1e-6, 5e-6], ys=[1e6, 2e6])], AxesSpec(yscale="log")),
    ([Series(label="ints", xs=[1, 2, 4, 8, 16, 32, 64], ys=[7, 6, 5, 4, 3, 2, 1])],
     AxesSpec(xscale="log")),
]
# the SHA-256 of the corpus's SVG bytes, in order. A change that moves any
# drawn byte must update it on purpose
PIN_SHA256 = "f8c7cf6e73cd376cc62e207cc5b45b7e4ee7a37220e155b936ab43358e6e0810"


def test_svg_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the log-scale clamps
        for i, (series, axes) in enumerate(PIN_CORPUS):
            path = tmp_path / f"{i}.svg"
            emit_plot(series, axes, path)
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PIN_SHA256
