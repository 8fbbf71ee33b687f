"""Core algorithms: XBD0 analysis, required times, hierarchical timing."""

from repro.core.batch import BatchResult, ScenarioResult
from repro.core.budget import InputBudget, input_budgets
from repro.core.conditional import ConditionalAnalyzer, ConditionalResult
from repro.core.design_report import (
    design_timing_report,
    library_timing_report,
    render_batch_report,
    render_design_report,
)
from repro.core.demand import (
    DemandDrivenAnalyzer,
    DemandDrivenResult,
    PinPairExplanation,
    flat_functional_delay,
)
from repro.core.hier import (
    HierarchicalAnalyzer,
    HierResult,
    IncrementalAnalyzer,
    topological_models,
)
from repro.core.instance_models import (
    PerInstanceAnalyzer,
    instance_care_network,
)
from repro.core.ipblock import (
    black_box_from_library,
    black_box_module,
    export_timing_library,
    import_timing_library,
)
from repro.core.multilevel import (
    compose_design_models,
    design_as_module,
    evaluate_composed,
)
from repro.core.polygon import (
    PolygonPlacement,
    place_polygon,
    render_polygon_ascii,
    stack_cascade,
)
from repro.core.required import (
    ExactRequiredRelation,
    RequiredTimeResult,
    approx_required_tuples,
    characterize_network,
    characterize_output,
    exact_required_relation,
)
from repro.core.result import AnalysisResult, AnalysisResultMixin
from repro.core.sdc_export import (
    collect_exceptions,
    dumps_sdc,
    export_design_sdc,
    write_sdc,
)
from repro.core.subflat import SubcircuitFlatAnalyzer, SubFlatResult
from repro.core.sensitization import (
    cosensitization_delay,
    delay_by_criterion,
    static_sensitization_delay,
)
from repro.core.timing_model import DelayTuple, TimingModel, prune_dominated
from repro.core.xbd0 import (
    Engine,
    StabilityAnalyzer,
    circuit_delay,
    functional_delays,
    topological_upper_bound,
)

__all__ = [
    "AnalysisResult",
    "AnalysisResultMixin",
    "BatchResult",
    "ConditionalAnalyzer",
    "ConditionalResult",
    "DelayTuple",
    "DemandDrivenAnalyzer",
    "DemandDrivenResult",
    "PerInstanceAnalyzer",
    "PinPairExplanation",
    "Engine",
    "ExactRequiredRelation",
    "HierResult",
    "InputBudget",
    "HierarchicalAnalyzer",
    "IncrementalAnalyzer",
    "PolygonPlacement",
    "RequiredTimeResult",
    "ScenarioResult",
    "StabilityAnalyzer",
    "SubFlatResult",
    "SubcircuitFlatAnalyzer",
    "TimingModel",
    "approx_required_tuples",
    "black_box_from_library",
    "black_box_module",
    "characterize_network",
    "characterize_output",
    "circuit_delay",
    "collect_exceptions",
    "compose_design_models",
    "cosensitization_delay",
    "delay_by_criterion",
    "design_as_module",
    "design_timing_report",
    "dumps_sdc",
    "evaluate_composed",
    "exact_required_relation",
    "export_design_sdc",
    "export_timing_library",
    "flat_functional_delay",
    "functional_delays",
    "import_timing_library",
    "input_budgets",
    "instance_care_network",
    "library_timing_report",
    "place_polygon",
    "prune_dominated",
    "render_batch_report",
    "render_design_report",
    "render_polygon_ascii",
    "stack_cascade",
    "static_sensitization_delay",
    "topological_models",
    "topological_upper_bound",
    "write_sdc",
]
