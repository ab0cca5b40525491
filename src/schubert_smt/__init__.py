"""Exact standard-monomial computations on Grassmannian Schubert
varieties and their torus quotients.

The package imports nothing: each name is imported from the module that
defines it, so a command compiles only the modules it runs.
"""

# the verification cases, in canonical order: `cli` offers them without
# loading `verifier`, and `verifier.run_cases` runs them
CASE_NAMES = ("lemma", "appendix", "theorem", "proposition", "remarks")
