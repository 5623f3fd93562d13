"""Static client-side scripts the services hand out.

Real players ship a minified bundle; the auditor only cares whether the
bundle looks minified and whether key material leaks into it, so the
stub keeps exactly those two properties and nothing else.
"""

from .transport import HttpResponse

MINIFIED_BANNER = "/*! player bundle - minified, do not edit */"


def script_response(lines: list[str]) -> HttpResponse:
    body = MINIFIED_BANNER + "\n" + ";".join(lines) + ";\n"
    return HttpResponse(
        status=200,
        headers={"content-type": "application/javascript"},
        body=body.encode("utf-8"),
    )
