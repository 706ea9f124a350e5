"""Config parsing, validation, hashing, overrides, and profile builders."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from carleman_lab import cli
from carleman_lab import config as cfgmod
from carleman_lab.config import ConfigError


BASE = """
[geometry]
outer = rect -1.0 1.0 -1.0 1.0
interface = disk 0.5

[physics]
a1 = 2.0
a2 = 1.0
p = sine 1.0 0.4
y0 = cosine 2.0 0.5
T = 0.5
nx = 17
dt = 0.125

[output]
directory = out/testing
formats = csv json
"""


def write_config(tmp_path, text=BASE, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def amend(text, old, new):
    assert old in text
    return text.replace(old, new)


class TestLoad:
    def test_round_trip_values(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        assert cfg.geometry.outer == ("rect", -1.0, 1.0, -1.0, 1.0)
        assert cfg.geometry.interface == ("disk", 0.5, 0.0, 0.0)
        assert cfg.geometry.x0 == (0.0, 0.0)
        assert cfg.physics.a1 == 2.0
        assert cfg.physics.a2 == 1.0
        assert cfg.physics.p == "sine 1.0 0.4"
        assert cfg.physics.h == "initial"
        assert cfg.physics.n_steps == 4
        assert cfg.output.formats == ("csv", "json")

    def test_defaults_fill_missing_blocks(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        assert cfg.carleman.s == (10.0, 20.0, 40.0, 80.0)
        assert cfg.carleman.lam == (1.0, 2.0)
        assert cfg.carleman.M2 == 1.0
        assert cfg.carleman.delta_t is None
        assert cfg.inverse.beta == 1e-6
        assert cfg.inverse.q_bound == np.inf

    def test_disk_outer_and_fourier_interface(self, tmp_path):
        # the outer domain is a rectangle only; the interface may be a disk
        # or a Fourier curve
        text = amend(BASE, "outer = rect -1.0 1.0 -1.0 1.0",
                     "outer = disk 0.0 0.0 2.0")
        with pytest.raises(ConfigError, match=r"^geometry\.outer: "):
            cfgmod.load_config(write_config(tmp_path, text))
        text = amend(BASE, "interface = disk 0.5",
                     "interface = fourier 0.5 3:0.02,5:0.01")
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        kind, c0, harmonics, cx, cy = cfg.geometry.interface
        assert kind == "fourier" and c0 == 0.5
        assert harmonics == ((3, 0.02), (5, 0.01))

    def test_inline_comments_are_stripped(self, tmp_path):
        text = amend(BASE, "a1 = 2.0", "a1 = 2.0   # inside")
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        assert cfg.physics.a1 == 2.0

    def test_uppercase_keys_are_preserved(self, tmp_path):
        text = BASE + "\n[carleman]\nM2 = 0.25\n"
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        assert cfg.carleman.M2 == 0.25


class TestErrors:
    @pytest.mark.parametrize("old,new,path", [
        ("T = 0.5", "", "physics.T"),
        ("dt = 0.125", "dt = 0.13", "physics.dt"),
        ("dt = 0.125", "dt = 0.5", "physics.dt"),
        ("dt = 0.125", "dt = 1e-320", "physics.dt"),  # below the smallest step
        ("a1 = 2.0", "a1 = -2.0", "physics.a1"),
        ("a1 = 2.0", "a1 = two", "physics.a1"),
        ("p = sine 1.0 0.4", "p = wiggle 1.0", "physics.p"),
        ("p = sine 1.0 0.4", "p = cosine 1.0 0.4", "physics.p"),
        ("p = sine 1.0 0.4", "p = sine 1.0", "physics.p"),
        ("y0 = cosine 2.0 0.5", "y0 = imag", "physics.y0"),
        ("nx = 17", "nx = 3", "physics.nx"),
        ("formats = csv json", "formats = csv yaml", "output.formats"),
        ("outer = rect -1.0 1.0 -1.0 1.0", "outer = rect 1.0 -1.0 -1.0 1.0",
         "geometry.outer"),
        ("outer = rect -1.0 1.0 -1.0 1.0", "outer = hexagon 1.0",
         "geometry.outer"),
        ("outer = rect -1.0 1.0 -1.0 1.0", "outer = rect -1.1 x -1.1 1.1",
         "geometry.outer"),
        ("outer = rect -1.0 1.0 -1.0 1.0", "outer = disk 0.0 0.0 inf",
         "geometry.outer"),
        ("interface = disk 0.5", "interface = disk -0.5",
         "geometry.interface"),
        ("interface = disk 0.5", "interface = fourier 0.5 3-0.02",
         "geometry.interface"),
        ("interface = disk 0.5", "interface = fourier 0.5 3:inf",
         "geometry.interface"),
        ("interface = disk 0.5", "interface = disk 0.5 nan 0.0",
         "geometry.interface"),
    ])
    def test_field_path_in_message(self, tmp_path, old, new, path):
        text = amend(BASE, old, new)
        with pytest.raises(ConfigError) as err:
            cfgmod.load_config(write_config(tmp_path, text))
        assert str(err.value).startswith(path)

    def test_unknown_key_is_rejected(self, tmp_path):
        text = amend(BASE, "a1 = 2.0", "a1 = 2.0\nat = 3.0")
        with pytest.raises(ConfigError, match=r"physics\.at: unknown key"):
            cfgmod.load_config(write_config(tmp_path, text))

    def test_unknown_section_is_rejected(self, tmp_path):
        text = BASE + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ConfigError, match="plotting: unknown section"):
            cfgmod.load_config(write_config(tmp_path, text))

    def test_h_mode_is_validated(self, tmp_path):
        text = amend(BASE, "p = sine 1.0 0.4", "p = sine 1.0 0.4\nh = warm")
        with pytest.raises(ConfigError, match="physics.h"):
            cfgmod.load_config(write_config(tmp_path, text))

    def test_zero_dirichlet_data_is_rejected(self, tmp_path):
        # y0's rim, held at every time, is the one Dirichlet rule
        text = amend(BASE, "p = sine 1.0 0.4", "p = sine 1.0 0.4\nh = zero")
        with pytest.raises(ConfigError, match="physics.h: must be 'initial'"):
            cfgmod.load_config(write_config(tmp_path, text))

    def test_carleman_values_are_validated(self, tmp_path):
        for extra, path in [
            ("s = 10 -20", "carleman.s"),
            ("lambda = 0", "carleman.lambda"),
            ("delta_t = 0.5", "carleman.delta_t"),
            ("seed = -1", "carleman.seed"),
            ("cutoff = 0.5 0.2", "carleman.cutoff"),
            ("cutoff = 0 0.2", "carleman.cutoff"),
        ]:
            text = BASE + f"\n[carleman]\n{extra}\n"
            with pytest.raises(ConfigError) as err:
                cfgmod.load_config(write_config(tmp_path, text))
            assert str(err.value).startswith(path)

    def test_inverse_values_are_validated(self, tmp_path):
        for extra, path in [
            ("amplitudes = -1e-3 1e-1", "inverse.amplitudes"),
            ("amplitudes = 0 1e-1", "inverse.amplitudes"),
            ("amplitudes = 1e-1 1e-3", "inverse.amplitudes"),
            ("seed = -1", "inverse.seed"),
            ("noise = -0.1", "inverse.noise"),
            ("beta = -1.0", "inverse.beta"),
            ("q_bound = lots", "inverse.q_bound"),
            ("q_bound = nan", "inverse.q_bound"),
            ("q_bound = -1", "inverse.q_bound"),
            ("q_bound = -inf", "inverse.q_bound"),
        ]:
            text = BASE + f"\n[inverse]\n{extra}\n"
            with pytest.raises(ConfigError) as err:
                cfgmod.load_config(write_config(tmp_path, text))
            assert str(err.value).startswith(path)

    @pytest.mark.parametrize("value, expected", [("inf", np.inf), ("0", 0.0),
                                                 ("2.5", 2.5)])
    def test_q_bound_accepts_inf_and_zero(self, tmp_path, value, expected):
        text = BASE + f"\n[inverse]\nq_bound = {value}\n"
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        assert cfg.inverse.q_bound == expected

    def test_unparseable_ini(self, tmp_path):
        with pytest.raises(ConfigError, match="not parseable"):
            cfgmod.load_config(write_config(tmp_path, "x = 1\nno section"))


class TestHash:
    def test_hash_is_deterministic(self, tmp_path):
        cfg_a = cfgmod.load_config(write_config(tmp_path, name="a.ini"))
        cfg_b = cfgmod.load_config(write_config(tmp_path, name="b.ini"))
        assert cfgmod.config_hash(cfg_a) == cfgmod.config_hash(cfg_b)

    def test_inverse_block_moves_config_hash(self, tmp_path):
        base = cfgmod.load_config(write_config(tmp_path))
        text = BASE + "\n[inverse]\nseed = 99\n"
        tweaked = cfgmod.load_config(write_config(tmp_path, text))
        assert cfgmod.config_hash(base) != cfgmod.config_hash(tweaked)

    def test_weight_centres_move_config_hash(self, tmp_path):
        base = cfgmod.load_config(write_config(tmp_path))
        text = BASE.replace("interface = disk 0.5\n",
                            "interface = disk 0.5\nx1 = -0.2 0.1\n")
        tweaked = cfgmod.load_config(write_config(tmp_path, text))
        assert cfgmod.config_hash(base) != cfgmod.config_hash(tweaked)

    def test_domain_change_moves_config_hash(self, tmp_path):
        base = cfgmod.load_config(write_config(tmp_path))
        text = amend(BASE, "interface = disk 0.5", "interface = disk 0.4")
        tweaked = cfgmod.load_config(write_config(tmp_path, text))
        assert cfgmod.config_hash(base) != cfgmod.config_hash(tweaked)

    def test_physics_change_moves_config_hash(self, tmp_path):
        base = cfgmod.load_config(write_config(tmp_path))
        text = amend(BASE, "a2 = 1.0", "a2 = 1.5")
        tweaked = cfgmod.load_config(write_config(tmp_path, text))
        assert cfgmod.config_hash(base) != cfgmod.config_hash(tweaked)

    def test_output_block_never_hashes(self, tmp_path):
        base = cfgmod.load_config(write_config(tmp_path))
        text = amend(BASE, "directory = out/testing", "directory = elsewhere")
        tweaked = cfgmod.load_config(write_config(tmp_path, text))
        assert cfgmod.config_hash(base) == cfgmod.config_hash(tweaked)


class TestOverrides:
    def test_seed_override_hits_both_blocks(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        out = cfgmod.apply_overrides(cfg, seed=42)
        assert out.carleman.seed == 42
        assert out.inverse.seed == 42
        assert cfg.carleman.seed == 0  # original untouched

    def test_n_override(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        out = cfgmod.apply_overrides(cfg, n=4)
        assert out.carleman.n_fields == 4
        assert out.inverse.n_perturbations == 4
        zero = cfgmod.apply_overrides(cfg, n=0)
        assert zero.carleman.n_fields == 1
        assert zero.inverse.n_perturbations == 0

    def test_negative_n_is_rejected(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="--n"):
            cfgmod.apply_overrides(cfg, n=-1)

    def test_negative_seed_is_rejected(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match=r"^--seed: "):
            cfgmod.apply_overrides(cfg, seed=-1)


class TestBuilders:
    def test_build_layout_and_grid(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        layout = cfgmod.build_layout(cfg)
        assert layout.clearance > 0.0
        grid = cfgmod.build_grid(cfg)
        assert grid.shape == (17, 17)

    def test_grid_requires_rect_outer(self, tmp_path, capsys):
        # every subcommand rejects a disk outer domain at load
        text = amend(BASE, "outer = rect -1.0 1.0 -1.0 1.0",
                     "outer = disk 0.0 0.0 2.0")
        path = str(write_config(tmp_path, text))
        for sub in cli.HANDLERS:
            code = cli.main([sub, "--config", path,
                             "--output-dir", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: geometry.outer: ")

    def test_interface_outside_outer_is_config_error(self, tmp_path):
        text = amend(BASE, "interface = disk 0.5", "interface = disk 1.5")
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="geometry.interface"):
            cfgmod.build_layout(cfg)

    def test_coefficient_matches_physics(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        layout = cfgmod.build_layout(cfg)
        coeff = cfgmod.build_coefficient(cfg, layout)
        assert coeff.a1 == 2.0 and coeff.a2 == 1.0


class TestProfiles:
    def grid(self, tmp_path):
        return cfgmod.build_grid(cfgmod.load_config(write_config(tmp_path)))

    def test_constant_profile(self, tmp_path):
        grid = self.grid(tmp_path)
        vals = cfgmod.real_profile("constant 3.5", grid)
        assert vals.dtype.kind == "f"
        assert np.all(vals == 3.5)

    def test_sine_profile_formula(self, tmp_path):
        grid = self.grid(tmp_path)
        vals = cfgmod.real_profile("sine 1.0 0.4", grid)
        x, y = grid.points[..., 0], grid.points[..., 1]
        assert np.allclose(vals, 1.0 + 0.4 * np.sin(x) * np.cos(y))

    def test_gaussian_profile_formula(self, tmp_path):
        grid = self.grid(tmp_path)
        vals = cfgmod.real_profile("gaussian 0.0 2.0 0.1 -0.2 0.5", grid)
        x, y = grid.points[..., 0], grid.points[..., 1]
        ref = 2.0 * np.exp(-((x - 0.1) ** 2 + (y + 0.2) ** 2) / 0.25)
        assert np.allclose(vals, ref)

    def test_imag_prefix(self, tmp_path):
        grid = self.grid(tmp_path)
        plain = cfgmod.complex_profile("constant 2.0", grid)
        rotated = cfgmod.complex_profile("imag constant 2.0", grid)
        assert np.allclose(rotated, 1j * plain)

    def test_cosine_equals_base_on_rim(self, tmp_path):
        grid = self.grid(tmp_path)
        vals = cfgmod.complex_profile("cosine 2.0 0.5", grid)
        rim = vals.ravel()[grid.boundary_ids]
        assert np.max(np.abs(rim - 2.0)) < 1e-15
        assert np.abs(vals[grid.nx // 2, grid.ny // 2]) > 2.2


class TestFlat:
    def test_flat_covers_hashed_blocks_only(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        flat = cfg.flat()
        sections = {key.split(".")[0] for key in flat}
        assert sections == {"geometry", "physics", "carleman", "inverse"}

    def test_canonical_none_and_tuples(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        flat = cfg.flat()
        assert flat["carleman.delta_t"] == "none"
        assert flat["carleman.s"] == "10.0 20.0 40.0 80.0"

    def test_config_is_frozen(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.physics.a1 = 3.0


class TestKeyTable:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_block_fields_are_the_table_rows(self):
        for section, block in cfgmod.BLOCKS.items():
            rows = [key.attr for key in cfgmod.KEYS if key.section == section]
            assert rows == [f.name for f in dataclasses.fields(block)]
        assert [f.name for f in dataclasses.fields(cfgmod.ExperimentConfig)] \
            == list(cfgmod.BLOCKS)

    def test_each_key_is_one_row_with_a_doc(self):
        paths = [key.path for key in cfgmod.KEYS]
        assert len(paths) == len(set(paths)) == 34
        assert all(key.doc for key in cfgmod.KEYS)
        assert [key.path for key in cfgmod.KEYS if key.attr != key.name] \
            == ["carleman.lambda"]

    def test_readme_lists_exactly_the_table_keys(self):
        # the annotated INI under "## Configuration"; an optional key
        # without a default value is a commented "# key = ..." line
        text = self.README.read_text()
        block = text[text.index("## Configuration"):]
        block = block[block.index("```ini\n") + 7:]
        block = block[:block.index("```")]
        listed, section = [], None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]$", line)
            if header:
                section = header.group(1)
            key = re.match(r"#? ?(\w+) = ", line)
            if key:
                listed.append(f"{section}.{key.group(1)}")
        assert listed == [key.path for key in cfgmod.KEYS]

    def test_docstring_lists_no_key(self):
        # the table is the schema; the module docstring points to it
        assert "KEYS" in cfgmod.__doc__
        assert re.findall(r"^\s*(\w+)\s*=", cfgmod.__doc__, re.M) == []

    def test_defaults_keep_their_parsed_types(self):
        for key in cfgmod.KEYS:
            if key.default is cfgmod.REQUIRED or key.default is None:
                continue
            if isinstance(key.default, str):
                raw = key.default
            elif isinstance(key.default, tuple):
                raw = " ".join(str(v) for v in key.default)
            else:
                raw = str(key.default)
            parsed = key.parse(raw, key.path)
            assert parsed == key.default and type(parsed) is type(key.default), key.path

    @pytest.mark.parametrize("value, ok", [("2048", True), ("2049", False),
                                           ("100000", False)])
    def test_n_grid_is_bounded(self, tmp_path, value, ok):
        # the psi scan holds about 82 bytes per point of its n_grid^2 grid
        path = write_config(tmp_path, BASE + f"\n[carleman]\nn_grid = {value}\n")
        if ok:
            assert cfgmod.load_config(path).carleman.n_grid == 2048
        else:
            with pytest.raises(ConfigError, match=r"^carleman\.n_grid: must be <= 2048, "):
                cfgmod.load_config(path)

    @pytest.mark.parametrize("value, ok", [("100000", True), ("100001", False),
                                           ("1000000000", False)])
    def test_n_perturbations_is_bounded(self, tmp_path, value, ok):
        # 10^9 log-spaced amplitudes alone take 8 GB before the first solve
        path = write_config(tmp_path, BASE + f"\n[inverse]\nn_perturbations = {value}\n")
        if ok:
            assert cfgmod.load_config(path).inverse.n_perturbations == 100000
        else:
            with pytest.raises(
                    ConfigError, match=r"^inverse\.n_perturbations: must be <= 100000, "):
                cfgmod.load_config(path)

    def test_blocks_are_frozen_dataclasses_of_this_module(self):
        for section, block in cfgmod.BLOCKS.items():
            assert block.__name__ == f"{section.capitalize()}Block"
            assert block.__module__ == cfgmod.__name__
            assert block.__dataclass_params__.frozen
        assert [name for name, member in vars(cfgmod.BLOCKS["physics"]).items()
                if isinstance(member, property)] == ["n_steps"]
