"""Static client-side scripts and song pages the services hand out.

Real players ship a minified bundle; the auditor only cares whether the
bundle looks minified and whether key material leaks into it, so the
stub keeps exactly those two properties and nothing else. Pages are one
fixed skeleton around whatever the service embeds.
"""

from .transport import HttpResponse

MINIFIED_BANNER = "/*! player bundle - minified, do not edit */"


class PageError(ValueError):
    """A song page that does not carry what its service embeds."""


def script_response(lines: list[str]) -> HttpResponse:
    body = MINIFIED_BANNER + "\n" + ";".join(lines) + ";\n"
    return HttpResponse(
        status=200,
        headers={"content-type": "application/javascript"},
        body=body.encode("utf-8"),
    )


def page_response(title: str, inner_html: str) -> HttpResponse:
    html = (
        f"<!DOCTYPE html><html><head><title>{title}</title></head><body>\n"
        f"{inner_html}\n</body></html>\n"
    )
    return HttpResponse(
        status=200, headers={"content-type": "text/html"}, body=html.encode("utf-8")
    )
