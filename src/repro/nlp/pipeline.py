"""The annotation pipeline: raw text in, annotated :class:`Document` out.

This is the drop-in replacement for the spaCy / Google NL preprocessing step
of the paper (Section 2, "Preprocessing the input").  The pipeline chains
the tokenizer, POS tagger, lemmatiser, dependency parser and entity
recogniser, and assigns sentence ids in document order.
"""

from __future__ import annotations

from ..errors import PipelineError
from .dependency import DependencyParser
from .lemmatizer import Lemmatizer
from .ner import EntityRecognizer
from .pos import PosTagger
from .tokenizer import Tokenizer
from .types import Corpus, Document, Sentence

__all__ = ["Pipeline"]


class Pipeline:
    """Deterministic NLP annotation pipeline.

    Parameters
    ----------
    tokenizer, tagger, parser, recognizer, lemmatizer:
        Component overrides; each defaults to the rule-based implementation
        in this package.  Passing custom components is how the tests inject
        controlled annotations.
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        tagger: PosTagger | None = None,
        parser: DependencyParser | None = None,
        recognizer: EntityRecognizer | None = None,
        lemmatizer: Lemmatizer | None = None,
    ) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.tagger = tagger or PosTagger()
        self.parser = parser or DependencyParser()
        self.recognizer = recognizer or EntityRecognizer()
        self.lemmatizer = lemmatizer or Lemmatizer()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def annotate(self, text: str, doc_id: str = "doc0", first_sid: int = 0) -> Document:
        """Annotate *text* and return a :class:`Document`.

        ``first_sid`` sets the sentence id of the first sentence, so that a
        corpus built document-by-document can assign globally unique
        sentence ids (the indexes key postings by sentence id).
        """
        if text is None:
            raise PipelineError("cannot annotate None")
        sentences: list[Sentence] = []
        sid = first_sid
        for raw_sentence in self.tokenizer.split_sentences(text):
            sentence = self.annotate_sentence(raw_sentence, sid)
            if len(sentence) == 0:
                continue
            sentences.append(sentence)
            sid += 1
        return Document(doc_id=doc_id, sentences=sentences, text=text)

    def annotate_sentence(self, raw_sentence: str, sid: int = 0) -> Sentence:
        """Annotate a single sentence string.

        The components' outputs become the sentence's columns directly
        (:meth:`Sentence.from_columns`); no per-token object is built.
        """
        words = self.tokenizer.tokenize(raw_sentence)
        if not words:
            return Sentence.from_columns(sid, (), (), (), (), (), text=raw_sentence)
        tags = self.tagger.tag(words)
        heads, labels = self.parser.parse(words, tags)
        mentions = self.recognizer.recognize(words, tags)
        lemma = self.lemmatizer.lemma
        entity_types: list[str | None] = [None] * len(words)
        for mention in mentions:
            entity_types[mention.start : mention.end + 1] = [mention.etype] * len(mention)
        return Sentence.from_columns(
            sid,
            words,
            tags,
            labels,
            heads,
            [lemma(word, tag) or word.lower() for word, tag in zip(words, tags)],
            entity_types,
            [(m.start, m.end, m.etype, m.text) for m in mentions],
            raw_sentence,
        )

    def annotate_corpus(
        self, texts: dict[str, str] | list[str], name: str = "corpus"
    ) -> Corpus:
        """Annotate many documents with globally consecutive sentence ids.

        *texts* is either a list of document strings or a mapping from
        document id to document string.
        """
        if isinstance(texts, dict):
            items = list(texts.items())
        else:
            items = [(f"doc{i}", text) for i, text in enumerate(texts)]
        corpus = Corpus(name=name)
        next_sid = 0
        for doc_id, text in items:
            document = self.annotate(text, doc_id=doc_id, first_sid=next_sid)
            next_sid += len(document)
            corpus.documents.append(document)
        return corpus
