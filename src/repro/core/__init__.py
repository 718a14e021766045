"""HeatViT core: adaptive token selector, model wrapper, training strategy."""

from repro._lazy import lazy_exports

__all__ = [
    "HeatViT", "PruningRecord",
    "TokenSelector", "MultiHeadTokenClassifier", "ConvTokenClassifier",
    "AttentionBranch", "SelectorOutput",
    "LatencySparsityTable", "paper_latency_table", "latency_sparsity_loss",
    "confidence_loss", "ratios_for_latency_budget",
    "latency_from_stage_counts",
    "gather_kept_tokens", "prune_image_sequence", "weighted_package",
    "TrainConfig", "EpochStats", "train_backbone", "train_heatvit",
    "heatvit_loss", "iterate_minibatches",
    "BlockToStageTrainer", "InsertionTrace", "TrainingReport",
    "consolidate_stages",
    "SingleHeadTokenClassifier", "UniformHeadSelector",
    "make_single_head_factory",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "ablations": ("SingleHeadTokenClassifier", "UniformHeadSelector",
                  "make_single_head_factory"),
    "gather": ("gather_kept_tokens", "prune_image_sequence",
               "weighted_package"),
    "heatvit": ("HeatViT", "PruningRecord"),
    "latency": ("LatencySparsityTable", "confidence_loss",
                "latency_from_stage_counts", "latency_sparsity_loss",
                "paper_latency_table", "ratios_for_latency_budget"),
    "selector": ("AttentionBranch", "ConvTokenClassifier",
                 "MultiHeadTokenClassifier", "SelectorOutput",
                 "TokenSelector"),
    "training": ("BlockToStageTrainer", "EpochStats", "InsertionTrace",
                 "TrainConfig", "TrainingReport", "consolidate_stages",
                 "heatvit_loss", "iterate_minibatches", "train_backbone",
                 "train_heatvit"),
})
