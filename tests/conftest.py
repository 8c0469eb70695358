import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver instruction: never
    per-test)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def data_dir():
    from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
