"""The backend registry and the legacy string-API shim."""

import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    NumpyBackend,
    PythonBackend,
    all_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)


class TestBuiltins:
    def test_python_is_default_and_reference(self):
        assert backend_names()[0] == "python"
        assert get_backend("python").differential_references == ()

    def test_numpy_cross_checks_against_python(self):
        assert get_backend("numpy").differential_references == ("python",)

    def test_capabilities_declared(self):
        numpy = get_backend("numpy")
        assert numpy.capabilities.vectorized
        assert numpy.capabilities.strategies
        python = get_backend("python")
        assert not python.capabilities.vectorized
        assert set(python.capabilities.ranks) == {2, 3}


class TestShim:
    def test_string_resolves_to_instance(self):
        assert isinstance(get_backend("python"), PythonBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_instance_passes_through(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend

    def test_unknown_name_keeps_legacy_error(self):
        # Pinned: callers match on this exact message.
        with pytest.raises(
            ValueError, match="unknown lowering backend 'cuda'"
        ):
            get_backend("cuda")

    def test_synthesize_accepts_instance(self):
        from repro.formats import csr, scoo
        from repro.synthesis import synthesize

        by_name = synthesize(scoo(), csr(), backend="numpy")
        by_instance = synthesize(scoo(), csr(), backend=get_backend("numpy"))
        assert by_instance.source == by_name.source
        assert by_instance.backend == "numpy"


class _TracingBackend(PythonBackend):
    name = "tracing-test"
    description = "scalar lowering registered by the test suite"
    capabilities = BackendCapabilities(
        ranks=(2,), vectorized=False, strategies=("scalar-loops",)
    )


@pytest.fixture
def custom_backend():
    backend = register_backend(_TracingBackend())
    yield backend
    unregister_backend(backend.name)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(PythonBackend())

    def test_non_backend_rejected(self):
        with pytest.raises(TypeError):
            register_backend("python")

    def test_registered_backend_usable_by_name(self, custom_backend):
        assert "tracing-test" in backend_names()
        assert get_backend("tracing-test") is custom_backend

        from repro import COOMatrix, convert

        coo = COOMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
        csr = convert(coo, "CSR", backend="tracing-test", validate="off")
        assert csr.rowptr.tolist() == [0, 1, 2]

    def test_registered_backend_listed_by_cli(self, custom_backend, capsys):
        from repro.__main__ import main

        assert main(["passes"]) == 0
        assert "tracing-test" in capsys.readouterr().out

    def test_describe_shape(self):
        desc = get_backend("numpy").describe()
        assert set(desc) == {
            "name", "description", "differential_references", "capabilities"
        }
        assert desc["capabilities"]["vectorized"] is True


class TestAllBackends:
    def test_matches_names(self):
        assert tuple(b.name for b in all_backends()) == backend_names()

    def test_every_backend_importable_namespace(self):
        for backend in all_backends():
            ns = backend.namespace()
            assert isinstance(ns, dict) and "BSEARCH" in ns


class TestAbstractBase:
    def test_hooks_have_safe_defaults(self):
        backend = Backend()
        assert backend.materialize({"x": 1}) == {"x": 1}
        assert backend.native_inputs({"x": 1}) == {"x": 1}
        backend.require()  # no soft deps by default
        with pytest.raises(NotImplementedError):
            backend.namespace()
        with pytest.raises(NotImplementedError):
            backend.estimate_cost(None)


class TestNativeInputs:
    """One staging hook for the numpy and C tiers, typed by the field's
    role (``Asrc`` float64, every other array int64), never by the first
    element."""

    @pytest.fixture(params=("numpy", "c"))
    def backend(self, request):
        from repro.backends import BackendUnavailableError

        backend = get_backend(request.param)
        try:
            backend.require()
        except BackendUnavailableError as err:
            pytest.skip(str(err))
        return backend

    def test_mixed_data_column_stages_as_float64(self, backend):
        import numpy as np

        staged = backend.native_inputs({"Asrc": [1, 2.5], "row1": [0, 1],
                                        "NNZ": 2})
        assert staged["Asrc"].dtype == np.float64
        assert staged["Asrc"].tolist() == [1.0, 2.5]
        assert staged["row1"].dtype == np.int64
        assert staged["NNZ"] == 2

    def test_empty_data_column_stages_as_float64(self, backend):
        import numpy as np

        staged = backend.native_inputs({"Asrc": [], "row1": []})
        assert staged["Asrc"].dtype == np.float64
        assert staged["row1"].dtype == np.int64

    def test_python_tier_stages_lists(self):
        from array import array

        staged = get_backend("python").native_inputs(
            {"Asrc": array("d", [1.5]), "NNZ": 1}
        )
        assert staged == {"Asrc": [1.5], "NNZ": 1}
