"""Vision Transformer substrate: models, configs, complexity, CKA."""

from repro._lazy import lazy_exports

__all__ = [
    "MultiHeadSelfAttention", "key_padding_mask", "pad_token_sequences",
    "suppress_attention_recording",
    "FeedForward", "TransformerBlock",
    "VisionTransformer", "PatchEmbedding",
    "linear_cka", "cls_token_cka_profile",
    "LayerCost", "StagePlan", "block_layer_costs", "block_macs",
    "model_macs", "model_gmacs", "pruned_model_macs", "pruned_model_gmacs",
    "token_selector_macs", "tokens_after_pruning",
    "ViTConfig", "small_config", "PAPER_BACKBONES",
    "DEIT_TINY", "DEIT_SMALL", "DEIT_BASE", "LVVIT_SMALL", "LVVIT_MEDIUM",
    "DEIT_T_160", "DEIT_S_288",
    "attention_rollout", "head_attention_grid",
    "render_token_grid", "render_keep_mask",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "analysis": ("attention_rollout", "head_attention_grid",
                 "render_keep_mask", "render_token_grid"),
    "attention": ("MultiHeadSelfAttention", "key_padding_mask",
                  "pad_token_sequences", "suppress_attention_recording"),
    "block": ("FeedForward", "TransformerBlock"),
    "cka": ("cls_token_cka_profile", "linear_cka"),
    "complexity": ("LayerCost", "StagePlan", "block_layer_costs",
                   "block_macs", "model_gmacs", "model_macs",
                   "pruned_model_gmacs", "pruned_model_macs",
                   "token_selector_macs", "tokens_after_pruning"),
    "config": ("DEIT_BASE", "DEIT_S_288", "DEIT_SMALL", "DEIT_T_160",
               "DEIT_TINY", "LVVIT_MEDIUM", "LVVIT_SMALL", "PAPER_BACKBONES",
               "ViTConfig", "small_config"),
    "model": ("VisionTransformer",),
    "patch_embed": ("PatchEmbedding",),
})
