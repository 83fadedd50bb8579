"""The exported names of the packages callers import from, the options
of the entry points that carry them, and the public methods of the
storage classes, against committed lists.

An export added or dropped shows up as a one-line diff to ``PUBLIC_API``
below, an option added or dropped as a one-line diff to ``OPTIONS``, a
method as a one-line diff to ``METHODS``, a report field as a one-line
diff to ``FIELDS``,
where a reviewer sees it; nothing else checks the "no new public name,
option or constructor argument" ground rule of the simplification issues.
"""

import dataclasses
import importlib
import inspect

import pytest

PUBLIC_API = {
    "repro.analysis": [
        "AvailabilityReport",
        "HOURS_PER_YEAR",
        "ReliabilityParameters",
        "SurvivalProfile",
        "annual_repair_traffic_bytes",
        "availability",
        "average_repair_reads",
        "durability_nines",
        "mttdl_hours",
        "mttdl_years",
        "survival_profile",
    ],
    "repro.reliability": [
        "CAMPAIGN_CODES",
        "ExponentialLifetime",
        "LifetimeModel",
        "ReliabilityConfig",
        "ReliabilityResult",
        "WeibullLifetime",
        "run_reliability_campaign",
        "run_validation",
        "simulate_reliability",
    ],
    "repro": [
        "CarouselCode",
        "ChaosSchedule",
        "Cluster",
        "DecodingError",
        "DistributedFileSystem",
        "ErasureCode",
        "FaultModel",
        "GalloperCode",
        "HealthMonitor",
        "LRCStructure",
        "MetricsRegistry",
        "PerformanceAwarePlacement",
        "PyramidCode",
        "RandomPlacement",
        "ReedSolomonCode",
        "RepairManager",
        "RepairPlan",
        "ReplicationCode",
        "ResilientBlockClient",
        "RotatedPyramidCode",
        "RoundRobinPlacement",
        "Server",
        "VirtualClock",
        "__version__",
        "assign_weights",
        "generate_schedules",
    ],
    "repro.storage": [
        "BlockStore",
        "BlockUnavailableError",
        "CLOSED",
        "Counter",
        "DistributedFileSystem",
        "EncodedFile",
        "FileSystemError",
        "HALF_OPEN",
        "HealthMonitor",
        "LeaseTable",
        "MetricsRegistry",
        "OPEN",
        "RepairAdmissionController",
        "RepairManager",
        "RepairReport",
        "ResilientBlockClient",
        "ScrubReport",
        "Scrubber",
        "ServerHealth",
        "ServerRepairReport",
        "StorageError",
        "StripedFileMeta",
        "StripedFileSystem",
        "StripedInputFormat",
        "TransientReadError",
        "pipeline",
    ],
    "repro.serving": [
        "FlashCrowd",
        "FrequencySketch",
        "GatewayConfig",
        "HotBlockCache",
        "RequestCoalescer",
        "ServingError",
        "ServingGateway",
        "TenantLease",
        "TenantThrottle",
        "WorkloadGenerator",
        "WorkloadResult",
        "WorkloadSpec",
        "file_payload",
        "populate",
    ],
    "repro.faults": [
        "CLEAN",
        "ChaosRunner",
        "ChaosSchedule",
        "FaultComponent",
        "FaultDecision",
        "FaultModel",
        "GraySlowdown",
        "LatencySpikes",
        "SilentCorruption",
        "TransientErrors",
        "VirtualClock",
        "bound_concurrent_crashes",
        "generate_schedule",
        "generate_schedules",
    ],
    "repro.sim": [
        "SimFuture",
        "SimLoop",
        "SimTask",
        "Simulation",
        "SimulationError",
        "ThroughputResource",
    ],
    "repro.cluster": [
        "Cluster",
        "ClusterError",
        "CopysetPlacement",
        "DEFAULT_BLOCK_SIZE",
        "FailureEvent",
        "GB",
        "GroupAwarePlacement",
        "MB",
        "PerformanceAwarePlacement",
        "PlacementError",
        "PlacementPolicy",
        "RackAwarePlacement",
        "RandomPlacement",
        "RoundRobinPlacement",
        "Server",
        "SpreadPlacement",
        "poisson_failure_trace",
    ],
    "repro.mapreduce": [
        "Assignment",
        "DataBlockInputFormat",
        "FixedLengthRecordReader",
        "GalloperInputFormat",
        "InputFormat",
        "InputSplit",
        "JobResult",
        "JobSpec",
        "LineRecordReader",
        "LocalityScheduler",
        "MapReduceRuntime",
        "RecordReader",
        "ScheduledTask",
        "SchedulingError",
        "TaskRecord",
        "workloads",
    ],
    "repro.gf": [
        "CodingPlan",
        "DEFAULT_PRIMITIVE_POLYS",
        "GF",
        "GF256",
        "GF65536",
        "GFError",
        "KERNEL_CHOICES",
        "SUPPORTED_WIDTHS",
        "SingularMatrixError",
        "TableGenerationError",
        "XorSchedule",
        "axpy",
        "bitmatrix_density",
        "cauchy",
        "coeff_bitmatrix",
        "companion_matrix",
        "current_kernel_choice",
        "double_symbols",
        "exp_log_tables",
        "express_rows",
        "full_mul_table",
        "generate_exp_log",
        "identity",
        "inverse",
        "inverse_table",
        "is_invertible",
        "kernel_bytes_info",
        "kernel_selection_info",
        "lane_selection_matrix",
        "mat_data_product",
        "mat_data_product_reference",
        "matmul",
        "native_available",
        "native_unavailable_reason",
        "predicted_win",
        "random_symbols",
        "rank",
        "reset_kernel_selection",
        "reset_native_backend",
        "rows_in_rowspace",
        "select_independent_rows",
        "solve_consistent",
        "split_product_tables",
        "validate_symbols",
    ],
    "repro.obs": [
        "Gauge",
        "Histogram",
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "Tracer",
        "get_tracer",
        "set_tracer",
        "use_tracer",
    ],
    "repro.codes": [
        "BlockInfo",
        "CarouselCode",
        "CodeError",
        "DecodingError",
        "ErasureCode",
        "GroupRepairMixin",
        "LRCStructure",
        "ParameterError",
        "PyramidCode",
        "ROLE_DATA",
        "ROLE_GLOBAL_PARITY",
        "ROLE_LOCAL_PARITY",
        "ROLE_REPLICA",
        "ReedSolomonCode",
        "RepairPlan",
        "ReplicationCode",
        "RotatedPyramidCode",
        "UpdatePlan",
        "pyramid_generator",
        "rs_generator",
        "update_cost",
        "update_plan",
    ],
    "repro.core": [
        "ConstructionError",
        "GalloperCode",
        "LayoutError",
        "RemappingError",
        "Selection",
        "WeightAssignment",
        "WeightError",
        "assign_weights",
        "change_basis",
        "expanded_generator",
        "finalize",
        "rationalize",
        "rotation_permutation",
        "sequential_selection",
        "solve_throttle_lp",
        "verify_identity_rows",
    ],
}

#: ``module:callable`` -> its parameter names, in order, one per line so
#: an option added or dropped is one line.
OPTIONS = {
    "repro.analysis:mttdl_hours": [
        "code",
        "params",
    ],
    "repro.faults:VirtualClock": [
    ],
    "repro.sim:SimLoop": [
    ],
    "repro.gf:GF": [
        "q",
    ],
    "repro.storage:DistributedFileSystem.write_encoded": [
        "self",
        "name",
        "code",
        "blocks",
        "original_size",
    ],
    "repro.storage:RepairManager.repair_block": [
        "self",
        "file_name",
        "block",
    ],
    "repro.storage:StripedFileMeta": [
        "name",
        "original_size",
        "group_payload",
        "group_count",
    ],
    "repro.serving:populate": [
        "gateway",
        "spec",
        "make_code",
        "placement",
    ],
    "repro.serving:file_payload": [
        "tenant",
        "index",
        "size",
    ],
    "repro.mapreduce.workloads:grep_job": [
        "input_file",
        "pattern",
    ],
    "repro.reliability:WeibullLifetime.infant_mortality": [
        "mean_hours",
    ],
    "repro.reliability:WeibullLifetime.wear_out": [
        "mean_hours",
    ],
    "repro.storage:DistributedFileSystem": [
        "cluster",
        "fault_model",
    ],
    "repro.storage:RepairManager": [
        "dfs",
    ],
    "repro.storage:ResilientBlockClient": [
        "store",
        "health",
        "clock",
    ],
    "repro.storage:HealthMonitor": [
        "clock",
        "metrics",
    ],
    "repro.storage:Scrubber": [
        "dfs",
    ],
    "repro.storage:ResilientBlockClient.get": [
        "self",
        "server_id",
        "file_name",
        "block_id",
    ],
    "repro.storage:BlockStore.get": [
        "self",
        "server_id",
        "file_name",
        "block_id",
    ],
    "repro.storage:BlockStore.timed_get": [
        "self",
        "server_id",
        "file_name",
        "block_id",
        "verify",
    ],
    "repro.storage:RepairAdmissionController": [
        "max_inflight_per_server",
        "metrics",
    ],
    "repro.storage:RepairAdmissionController.acquire": [
        "self",
        "now",
        "server_durations",
    ],
    "repro.sim:ThroughputResource": [
        "sim",
        "bandwidth",
    ],
    "repro.reliability:simulate_reliability": [
        "code",
        "placement",
        "config",
        "num_racks",
        "servers_per_rack",
        "stripes",
        "trials",
        "seed",
        "metrics",
    ],
    "repro.reliability:ReliabilityConfig": [
        "horizon_years",
        "disk_lifetime",
        "replacement_hours",
        "rack_mtbf_hours",
        "rack_downtime_hours",
        "rack_kill_fraction",
        "lse_rate_per_block_hour",
        "scrub_interval_hours",
        "block_size_bytes",
        "repair_bandwidth",
        "max_concurrent_repairs",
    ],
    "repro.serving:ServingGateway": [
        "dfs",
        "loop",
        "config",
    ],
    "repro.serving:GatewayConfig": [
        "cache_entries",
        "hedge_threshold",
        "max_inflight_per_tenant",
        "tenant_limits",
    ],
    "repro.bench.chaos:run_schedule": [
        "schedule",
        "code_name",
        "make_code",
        "checkpoints",
    ],
    "repro.bench.chaos:run_campaign": [
        "schedules",
        "base_seed",
        "checkpoints",
    ],
    "repro.mapreduce:MapReduceRuntime": [
        "dfs",
        "execute",
        "speculative",
    ],
    "repro.mapreduce:LocalityScheduler": [
        "sim",
        "cluster",
        "speculative",
        "health",
        "metrics",
    ],
    "repro.mapreduce:InputFormat": [
    ],
    "repro.mapreduce:DataBlockInputFormat": [
    ],
    "repro.mapreduce:GalloperInputFormat": [
    ],
    "repro.storage:StripedInputFormat": [
    ],
    "repro.mapreduce.workloads:generate_text": [
        "size_bytes",
        "seed",
    ],
    "repro.cluster:Server": [
        "server_id",
        "cpu_speed",
        "disk_bandwidth",
        "network_bandwidth",
        "map_slots",
        "failed",
        "rack",
    ],
    "repro.cluster:RackAwarePlacement": [
        "structure",
    ],
    "repro.cluster:PerformanceAwarePlacement": [
        "metric",
    ],
    "repro.cluster:poisson_failure_trace": [
        "server_ids",
        "horizon",
        "mtbf",
        "seed",
        "mttr",
    ],
    "repro.faults:generate_schedule": [
        "server_ids",
        "seed",
        "horizon",
    ],
    "repro.faults:ChaosSchedule": [
        "seed",
        "horizon",
        "crashes",
        "components",
    ],
    "repro.obs.metrics:Histogram": [
    ],
    "repro.codes:rs_generator": [
        "gf",
        "k",
        "r",
    ],
    "repro.codes:pyramid_generator": [
        "gf",
        "structure",
    ],
    "repro.codes:ReedSolomonCode": [
        "k",
        "r",
        "gf",
    ],
    "repro.codes:PyramidCode": [
        "k",
        "l",
        "g",
        "gf",
        "all_symbol",
    ],
    "repro.codes:RotatedPyramidCode": [
        "k",
        "l",
        "g",
        "gf",
    ],
    "repro.codes:CarouselCode": [
        "k",
        "r",
        "gf",
    ],
    "repro.core:GalloperCode": [
        "k",
        "l",
        "g",
        "weights",
        "performances",
        "gf",
        "all_symbol",
    ],
    "repro.analysis:survival_profile": [
        "code",
    ],
    "repro.analysis:ReliabilityParameters": [
        "disk_mtbf_hours",
        "block_size_bytes",
        "repair_bandwidth",
    ],
    "repro.bench.chaos:baseline_read_latency": [
        "make_code",
    ],
    "repro.storage:Scrubber.scrub": [
        "self",
    ],
    "repro.sim:Simulation.run": [
        "self",
        "until",
    ],
    "repro.sim:SimLoop.run": [
        "self",
    ],
}

#: ``module:class`` -> its public methods (callable attributes without a
#: leading underscore), one per line so an addition or removal is one line.
METHODS = {
    "repro.faults:FaultModel": [
        "on_read",
    ],
    "repro.storage:DistributedFileSystem": [
        "file",
        "list_files",
        "read_bytes",
        "read_file",
        "read_file_into",
        "read_stripes",
        "stripe_holders",
        "write_encoded",
        "write_file",
        "write_virtual_file",
    ],
    "repro.storage:StripedFileSystem": [
        "file",
        "read_bytes",
        "read_file",
        "write_file",
    ],
    "repro.storage:EncodedFile": [
        "blocks_on_server",
        "server_of",
    ],
    "repro.storage:HealthMonitor": [
        "allow_request",
        "is_open",
        "rank",
        "record_error",
        "record_success",
        "score",
        "server",
    ],
    "repro.storage:RepairManager": [
        "repair_all",
        "repair_block",
        "repair_blocks_bulk",
        "repair_server",
    ],
    "repro.storage:Scrubber": [
        "scrub",
    ],
    "repro.codes.base:ReadPlan": [
        "compile",
        "runs_within",
    ],
    "repro.mapreduce:LocalityScheduler": [
        "effective_assignments",
        "reset",
        "run_phase",
    ],
    "repro.serving:ServingGateway": [
        "counters",
        "put",
        "qualify",
        "read",
        "repair_server",
    ],
    "repro.gf:GF": [
        "check",
        "div",
        "inv",
        "mul",
        "pow",
        "scalar_mul_array",
    ],
    "repro.faults:ChaosSchedule": [
        "fault_model",
        "runner",
    ],
    "repro.sim:Simulation": [
        "run",
        "schedule",
        "schedule_at",
    ],
    "repro.reliability:LifetimeModel": [
        "sample",
    ],
    "repro.reliability:ExponentialLifetime": [
        "sample",
    ],
    "repro.reliability:WeibullLifetime": [
        "from_mean",
        "infant_mortality",
        "sample",
        "wear_out",
    ],
    "repro.codes:UpdatePlan": [
    ],
    "repro.cluster:Cluster": [
        "alive",
        "alive_ids",
        "fail",
        "heterogeneous",
        "homogeneous",
        "performance_vector",
        "racked",
        "racks",
        "recover",
        "server",
    ],
    "repro.codes:ErasureCode": [
        "block_rows",
        "can_decode",
        "clear_plan_cache",
        "compile_decode",
        "compile_encode",
        "compile_helper_rows",
        "compile_reconstruct",
        "decode",
        "encode",
        "parallelism",
        "plan_cache_info",
        "read_plan",
        "reconstruct",
        "repair_plan",
        "rows_for_blocks",
        "storage_overhead",
        "verify_systematic",
    ],
    "repro.codes:ReplicationCode": [
        "block_rows",
        "can_decode",
        "clear_plan_cache",
        "compile_decode",
        "compile_encode",
        "compile_helper_rows",
        "compile_reconstruct",
        "copies_of",
        "decode",
        "encode",
        "parallelism",
        "plan_cache_info",
        "read_plan",
        "reconstruct",
        "repair_plan",
        "rows_for_blocks",
        "storage_overhead",
        "verify_systematic",
    ],
    "repro.codes.structure:LRCStructure": [
        "data_blocks",
        "data_position",
        "failure_tolerance",
        "global_parity_blocks",
        "group_data_count",
        "group_members",
        "group_of",
        "role_of",
    ],
    "repro.storage:BlockStore": [
        "corrupt",
        "drop",
        "drop_server",
        "get",
        "holds",
        "install_faults",
        "put",
        "read_rows",
        "timed_get",
        "timed_read_rows",
        "verify",
    ],
    "repro.storage:MetricsRegistry": [
        "add",
        "by_server",
        "histogram",
        "observe",
        "reset",
        "set_gauge",
        "snapshot",
        "snapshot_all",
        "total",
    ],
    "repro.serving:HotBlockCache": [
        "get",
        "hit_ratio",
        "offer",
    ],
    "repro.storage:BlockUnavailableError": [
        "add_note",
        "with_traceback",
    ],
    "repro.storage:FileSystemError": [
        "add_note",
        "with_traceback",
    ],
}


#: ``module:class`` -> the public fields and properties of a result
#: dataclass, one per line.
FIELDS = {
    "repro.storage:RepairReport": [
        "block",
        "bytes_read",
        "bytes_read_by_server",
        "bytes_written",
        "cross_rack_bytes",
        "file",
        "helpers",
        "target_server",
    ],
    "repro.storage:ServerRepairReport": [
        "blocks_rebuilt",
        "reports",
        "server",
    ],
    "repro.mapreduce:JobResult": [
        "avg_map_time",
        "job",
        "job_time",
        "map_phase_time",
        "num_map_tasks",
        "output",
        "reduce_phase_time",
        "shuffle_time",
        "speculative_copies",
        "tasks",
    ],
    "repro.mapreduce:Assignment": [
        "finish",
        "local",
        "server",
        "speculative",
        "start",
        "task",
    ],
    "repro.analysis:SurvivalProfile": [
        "fatal_extensions",
        "n",
        "survivable",
    ],
    "repro.codes:UpdatePlan": [
        "blocks_touched",
        "file_stripe",
        "stripes_touched",
        "touched",
    ],
    "repro.codes.structure:LRCStructure": [
        "all_symbol",
        "g",
        "gp_group_index",
        "group_data",
        "group_size",
        "k",
        "l",
        "n",
        "num_repair_groups",
    ],
    "repro.faults:ChaosRunner": [
        "_cursor",
        "_timeline",
        "schedule",
    ],
    "repro.storage:ScrubReport": [
        "blocks_checked",
        "blocks_skipped_breaker",
        "blocks_skipped_crashed",
        "corrupted",
        "repairs",
        "reverified",
    ],
    "repro.codes.base:BlockInfo": [
        "data_fraction",
        "data_stripes",
        "file_stripes",
        "group",
        "index",
        "role",
        "total_stripes",
    ],
}


@pytest.mark.parametrize("module", PUBLIC_API)
def test_exports_match_the_committed_list(module):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert sorted(exported) == PUBLIC_API[module]


@pytest.mark.parametrize("module", PUBLIC_API)
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


@pytest.mark.parametrize("entry", OPTIONS)
def test_options_match_the_committed_list(entry):
    module, _, path = entry.partition(":")
    target = importlib.import_module(module)
    for name in path.split("."):
        target = getattr(target, name)
    assert list(inspect.signature(target).parameters) == OPTIONS[entry]


@pytest.mark.parametrize("entry", METHODS)
def test_public_methods_match_the_committed_list(entry):
    module, _, name = entry.partition(":")
    cls = getattr(importlib.import_module(module), name)
    public = [attr for attr in dir(cls) if not attr.startswith("_") and callable(getattr(cls, attr))]
    assert public == METHODS[entry]


@pytest.mark.parametrize("entry", FIELDS)
def test_result_fields_match_the_committed_list(entry):
    module, _, name = entry.partition(":")
    cls = getattr(importlib.import_module(module), name)
    fields = [f.name for f in dataclasses.fields(cls)]
    properties = [attr for attr, value in vars(cls).items() if isinstance(value, property)]
    assert sorted(fields + properties) == FIELDS[entry]
