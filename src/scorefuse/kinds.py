"""The names the command line offers as choices, kept apart from the layers
that act on them, so that building the parser runs no layer."""

# plan kinds of :mod:`.protocol`, in the order a plan lists them
PLAN_KINDS = ("intra", "cross_distance", "cross_camera", "cross_both", "cross_dataset")
# fusion method kinds of :mod:`.protocol`
METHOD_KINDS = ("single", "avg", "bayes", "pcc_avg", "weighted", "perceptron")
# the method kinds fitted on validation scores
FITTED_KINDS = ("pcc_avg", "perceptron")
# score functions of :mod:`.embeddings`
METRICS = ("euclidean_posterior", "cosine")
